"""Unitary irreducible representations of small permutation groups.

Two sources are provided: exact catalogs for the cyclic, dihedral, and
degree-3 symmetric families, and a seeded randomized decomposition of the
regular representation for groups of order up to ``MAX_COMPUTED_ORDER``,
which builds each irrep once and retries when an eigenspace is reducible.
Both return the same
:class:`IrrepSet` shape, with irreps sorted by ascending dimension and ties
broken by character values on conjugacy-class representatives (descending,
so the trivial representation always comes first).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, NumericalError
from .permgroup import (
    ConjugacyClass,
    FiniteGroup,
    Permutation,
    SubgroupContext,
    conjugacy_classes,
    generate_group,
    parse_permutation,
)

DEFAULT_VERIFY_TOL = 1e-8
CHARACTER_TOL = 1e-6
RANK_TRACE_TOL = 1e-8
MAX_RETRIES = 8
# One compute_irreps call in a fresh process on one core takes about 1.9 s
# and 84 MB peak RSS for S6 (order 720), and 5.2 s and 118 MB for S5 x C8
# (order 960); its time grows as |G|^3 and its memory as |G|^2.
MAX_COMPUTED_ORDER = 1000


@dataclass(frozen=True, eq=False)
class Irrep:
    """A unitary irreducible representation given by one matrix per element.

    ``matrices[g]`` is the ``dim x dim`` image of group element ``g`` (by
    canonical index) and ``character[g]`` its trace.  The map is a
    homomorphism for left-to-right group composition read as ordinary matrix
    products: ``matrices[a] @ matrices[b] == matrices[group.mul(a, b)]``.
    """

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    character: np.ndarray


@dataclass(frozen=True, eq=False)
class IrrepSet:
    """A complete list of pairwise inequivalent irreps of one group."""

    group: FiniteGroup
    irreps: tuple[Irrep, ...]

    def __len__(self) -> int:
        return len(self.irreps)

    def __iter__(self):
        return iter(self.irreps)

    def __getitem__(self, i: int) -> Irrep:
        return self.irreps[i]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    @cached_property
    def character_table(self) -> np.ndarray:
        """The ``(r, |G|)`` array whose row ``i`` is ``irreps[i].character``.

        Built on first read and kept read-only, since every caller of this
        set shares it.
        """
        table = np.array([r.character for r in self.irreps], dtype=complex)
        table = table.reshape(len(self.irreps), self.group.order)
        table.flags.writeable = False
        return table

    @cached_property
    def image_sources(self) -> weakref.WeakKeyDictionary:
        """The lift routes' image sources over this set, held weakly by subgroup context."""
        return weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class SubgroupSumImage:
    """The sum of an irrep's matrices over a subgroup, with its rank."""

    matrix: np.ndarray
    rank: int


def _character(matrices: np.ndarray) -> np.ndarray:
    return np.einsum("gii->g", matrices)


def _canonical_key(dim: int, character: np.ndarray, classes: list[ConjugacyClass]):
    values = [complex(character[c.representative]) for c in classes]
    return (dim, tuple((-round(v.real, 9), -round(v.imag, 9)) for v in values))


def _sort_irreps(group, mats_list, classes):
    decorated = []
    for pos, mats in enumerate(mats_list):
        char = _character(mats)
        decorated.append((_canonical_key(mats.shape[1], char, classes), pos, mats, char))
    decorated.sort(key=lambda item: (item[0], item[1]))
    return tuple(
        Irrep(group=group, dim=mats.shape[1], matrices=mats, character=char)
        for _, _, mats, char in decorated
    )


def _validate_irrep_set(irrep_set: IrrepSet) -> None:
    group = irrep_set.group
    n = group.order
    if sum(r.dim * r.dim for r in irrep_set) != n:
        raise NumericalError(
            f"irrep check: squared dimensions {irrep_set.dims} do not sum to the "
            f"group order {n}"
        )
    for r in irrep_set:
        mats = r.matrices
        if mats.shape != (n, r.dim, r.dim):
            raise NumericalError("irrep check: matrix stack has the wrong shape")
        # Every check below compares with ``>``, which a NaN never passes.
        if not (np.isfinite(mats).all() and np.isfinite(r.character).all()):
            raise NumericalError(
                f"irrep check: {r.dim}-dimensional irrep has non-finite entries"
            )
        eye = np.eye(r.dim)
        if np.max(np.abs(mats[group.identity] - eye)) > DEFAULT_VERIFY_TOL:
            raise NumericalError(
                "irrep check: identity element is not mapped to the identity matrix"
            )
        # Whole-stack products over the rows of every image at once.  The
        # Gram matrix sums ``rho(g)^* rho(g)`` over g and must be ``n`` times
        # the identity: a flaw at one element shows in it undiluted, and the
        # images of a homomorphism leave the sum invariant, so it is ``n``
        # times the identity only if every image is unitary.
        rows = mats.reshape(n * r.dim, r.dim)
        if np.max(np.abs(rows.conj().T @ rows - n * eye)) > DEFAULT_VERIFY_TOL:
            raise NumericalError(f"irrep check: {r.dim}-dimensional irrep is not unitary")
        for gen in group.generators:
            prod = (rows @ mats[gen]).reshape(mats.shape)
            if np.max(np.abs(mats[group.mult_table[:, gen]] - prod)) > DEFAULT_VERIFY_TOL:
                raise NumericalError(
                    f"irrep check: {r.dim}-dimensional irrep is not a homomorphism"
                )
        norm = np.vdot(r.character, r.character) / n
        if abs(norm - 1) > CHARACTER_TOL:
            raise NumericalError(
                f"irrep check: character norm {norm:.6f} departs from 1; "
                "representation reducible"
            )
    table = irrep_set.character_table
    gram = table.conj() @ table.T / n
    if np.any(np.abs(np.triu(gram, 1)) > CHARACTER_TOL):
        raise NumericalError("irrep check: two listed irreps are equivalent")


def _generator_walk(group: FiniteGroup):
    """The breadth-first walk from the identity along right generator steps.

    Returns its steps ``(x, slot, y)``, one for each element ``y = x *
    generators[slot]`` that it reaches after the identity, in the order it
    first reaches them, and its depth: the number of steps the farthest of
    them takes from the identity.  It reaches every element only when the
    stored generators generate the group, that is when it takes
    ``group.order - 1`` steps.
    """
    columns = group.mult_table[:, list(group.generators)].tolist()
    steps = []
    seen = {group.identity}
    frontier = [group.identity]
    depth = 0
    while True:
        reached = []
        for x in frontier:
            for slot, y in enumerate(columns[x]):
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
                    steps.append((x, slot, y))
        if not reached:
            return steps, depth
        depth += 1
        frontier = reached


def _extend_from_generators(group: FiniteGroup, gen_images: np.ndarray) -> np.ndarray:
    """Extend stacked generator images to the whole group along :func:`_generator_walk`.

    ``gen_images[i, slot]`` is irrep ``i``'s image of ``group.generators[slot]``,
    so the stack is ``(r, s, d, d)``.  Each step ``y = x * gen`` of the walk
    gives ``mats[:, y] = mats[:, x] @ gen_images[:, slot]``.  Returns the
    ``(r, |G|, d, d)`` stack of all images.
    """
    steps, _ = _generator_walk(group)
    if len(steps) != group.order - 1:
        raise ConsistencyError("stored generators do not generate the group")
    r, _, d, _ = gen_images.shape
    mats = np.zeros((r, group.order, d, d), dtype=complex)
    mats[:, group.identity] = np.eye(d)
    for x, slot, y in steps:
        mats[:, y] = mats[:, x] @ gen_images[:, slot]
    return mats


def _builtin_cyclic(m: int) -> IrrepSet:
    if m == 1:
        group = generate_group([], degree=1)
    else:
        cycle = Permutation(m, tuple(list(range(2, m + 1)) + [1]))
        group = generate_group([cycle])
    shifts = np.array([p.images[0] - 1 for p in group.elements])
    mats_list = []
    for j in range(m):
        # ``j * s`` reduced mod m in integers: an unreduced phase of size up
        # to (m - 1)^2 loses ``conj(rho(g)) == rho(g^-1)`` by about
        # ``j * s * eps``, which broke the Hermitian image test from m ~ 700.
        values = np.exp(2j * np.pi * (j * shifts % m) / m)
        mats_list.append(values.reshape(m, 1, 1))
    classes = conjugacy_classes(group)
    return IrrepSet(group=group, irreps=_sort_irreps(group, mats_list, classes))


def _dihedral_generators(m: int) -> tuple[Permutation, Permutation]:
    if m == 1:
        return Permutation.identity(2), parse_permutation("(1 2)", 2)
    if m == 2:
        return parse_permutation("(1 2)(3 4)", 4), parse_permutation("(1 3)(2 4)", 4)
    rotation = Permutation(m, tuple(list(range(2, m + 1)) + [1]))
    flip = Permutation(m, tuple([1] + list(range(m, 1, -1))))
    return rotation, flip


def _builtin_dihedral(m: int) -> IrrepSet:
    rotation, flip = _dihedral_generators(m)
    group = generate_group([rotation, flip])
    signs = [(1.0, 1.0), (1.0, -1.0)]
    if m % 2 == 0:
        signs += [(-1.0, 1.0), (-1.0, -1.0)]
    sign_images = np.array(signs, dtype=complex).reshape(len(signs), 2, 1, 1)
    mats_list = list(_extend_from_generators(group, sign_images))
    reflect = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    planes = []
    for j in range(1, (m + 1) // 2):
        theta = 2.0 * np.pi * j / m
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ],
            dtype=complex,
        )
        planes.append([rot, reflect])
    if planes:
        mats_list.extend(_extend_from_generators(group, np.array(planes)))
    classes = conjugacy_classes(group)
    return IrrepSet(group=group, irreps=_sort_irreps(group, mats_list, classes))


def _builtin_sym3() -> IrrepSet:
    group = generate_group(
        [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
    )
    root3 = np.sqrt(3.0)
    # Exact two-dimensional images, keyed by image tuple.
    plane = {
        (1, 2, 3): np.eye(2, dtype=complex),
        (1, 3, 2): 0.5 * np.array([[-1.0, -root3], [-root3, 1.0]], dtype=complex),
        (2, 1, 3): 0.5 * np.array([[-1.0, root3], [root3, 1.0]], dtype=complex),
        (3, 2, 1): np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        (2, 3, 1): 0.5 * np.array([[-1.0, -root3], [root3, -1.0]], dtype=complex),
        (3, 1, 2): 0.5 * np.array([[-1.0, root3], [-root3, -1.0]], dtype=complex),
    }
    n = group.order
    trivial = np.ones((n, 1, 1), dtype=complex)
    sign = np.array([float(p.sign()) for p in group.elements]).reshape(n, 1, 1)
    two = np.stack([plane[p.images] for p in group.elements])
    classes = conjugacy_classes(group)
    return IrrepSet(
        group=group, irreps=_sort_irreps(group, [trivial, sign.astype(complex), two], classes)
    )


def builtin_irreps(name: str, param: int = 1) -> IrrepSet:
    """Exact irreps for a named family: ``cyclic``, ``dihedral``, or ``sym3``.

    ``param`` is the cyclic order for ``cyclic`` (group order ``param``) and
    the polygon size for ``dihedral`` (group order ``2 * param``); it is
    ignored for ``sym3``.  Cyclic irreps are the ``param`` roots-of-unity
    characters; dihedral irreps combine the one-dimensional sign characters
    with two-dimensional rotation blocks.
    """
    if name in ("cyclic", "dihedral") and param < 1:
        raise ConsistencyError(f"{name} family needs param >= 1, got {param}")
    if name == "cyclic":
        irrep_set = _builtin_cyclic(param)
    elif name == "dihedral":
        irrep_set = _builtin_dihedral(param)
    elif name == "sym3":
        irrep_set = _builtin_sym3()
    else:
        raise ConsistencyError(f"unknown irrep family {name!r}")
    _validate_irrep_set(irrep_set)
    return irrep_set


def _cluster_spans(eigenvalues: np.ndarray, gap_tol: float):
    spans = []
    lo = 0
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] > gap_tol:
            spans.append((lo, i))
            lo = i
    spans.append((lo, len(eigenvalues)))
    return spans


def _random_hermitian(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return 0.5 * (a + a.conj().T)


def _shift_slice(columns: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """The C-contiguous ``shifted[g, b, a] = columns[b, elements[g, a]]``.

    It is filled one row ``b`` at a time by a one-dimensional gather over
    the slice's elements: one pass over the output, with no broadcast index
    arrays, and beside it only one row's share of the slice.
    """
    shifted = np.empty((len(elements), len(columns), elements.shape[1]), dtype=columns.dtype)
    for b, column in enumerate(columns):
        shifted[:, b, :] = column[elements]
    return shifted


def _catalog_slices(basis: np.ndarray, table: np.ndarray, sub: np.ndarray):
    """Fill ``sub[g] = basis^* R(g) basis`` for the regular representation ``R``,
    32 group elements ``g`` at a time.

    Each slice yields ``(part, shifted)``: its block of ``sub`` and the gathered
    ``shifted[g, b, a] = basis[table[a, g], b]``, held once as a C-contiguous
    ``(g, b, a)`` array (:func:`_shift_slice`).
    """
    columns = basis.T.copy()
    dual = columns.conj()
    for g0 in range(0, len(sub), 32):
        part = sub[g0 : g0 + 32]
        shifted = _shift_slice(columns, np.ascontiguousarray(table.T[g0 : g0 + 32]))
        # With ``(g, b, a)`` the sum over ``a`` runs innermost along
        # contiguous memory; a ``(g, a, b)`` gather would leave numpy's inner
        # loop over the d entries of ``b``.  Either way each entry adds the
        # same products one by one in ``a`` order, so every bit is that of
        # ``einsum("ai,gab->gib", basis.conj(), basis[table.T[g0:g0 + 32]])``,
        # which ``test_catalog_slices_match_the_strided_einsum`` pins.
        np.einsum("ia,gba->gib", dual, shifted, out=part)
        yield part, shifted


def _average_conjugates(seed_matrix: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The lower triangle of the mean of ``seed_matrix`` conjugated by every
    element of the regular representation.

    ``table`` is the group's multiplication table, whose column ``g`` is the
    permutation that right multiplication by ``g`` makes of the elements.
    Only the entries on and below the diagonal are sure to be formed, and
    most of those above it are left zero: ``np.linalg.eigh`` reads the lower
    triangle alone, and the mean of Hermitian matrices is Hermitian anyway.
    """
    n = len(table)
    averaged = np.zeros((n, n), dtype=complex)
    # Conjugating by the regular representation permutes rows and columns by
    # right multiplication, so the mean is a gather, not a matrix product.
    # It is gathered 64 rows at a time, and each block's columns stop at its
    # last row, so the block holds the triangle and a little above it.  No
    # sum runs across entries, so the order of rows and columns is free;
    # every entry still adds 0 + term_0 + term_1 + ... in g order into a
    # contiguous accumulator, as one pass over whole matrices would, so every
    # bit of the triangle, of ``eigh``'s output and of the catalog stays.
    rows = np.empty((64, n), dtype=complex)
    block = np.empty(64 * n, dtype=complex)
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        picked = rows[: hi - lo]
        term = block[: (hi - lo) * hi].reshape(hi - lo, hi)
        acc = np.zeros((hi - lo, hi), dtype=complex)
        for g in range(n):
            col = table[:, g]
            np.take(seed_matrix, col[lo:hi], axis=0, out=picked, mode="wrap")
            np.take(picked, col[:hi], axis=1, out=term, mode="wrap")
            acc += term
        acc /= n
        averaged[lo:hi, :hi] = acc
    return averaged


def _slice_residual(basis: np.ndarray, part: np.ndarray, shifted: np.ndarray):
    """How far one slice of :func:`_catalog_slices` is from invariance.

    That is the largest entry of ``basis @ part`` less the shifted basis,
    read as ``(g, a, b)``; it is NaN if any entry is.  A slice whose residual
    is plainly below the tolerance reports ``DEFAULT_VERIFY_TOL / 2``
    instead, which is at least its residual and decides the same.
    """
    # First one gemm in the ``(g, b, a)`` layout of ``shifted``.  Its entries
    # differ from the product below only by rounding, far under a tenth of
    # the tolerance, and ``|z| <= sqrt(2) * max(|Re z|, |Im z|)``; so if no
    # real or imaginary part exceeds a quarter of the tolerance, the residual
    # is below half of it.  Two reductions of the float view take that
    # bound, and a NaN reaches both and fails it.
    d = part.shape[1]
    lifted = (part.transpose(0, 2, 1).reshape(-1, d) @ basis.T).reshape(shifted.shape)
    lifted -= shifted
    parts = lifted.view(float)
    if max(parts.max(), -parts.min()) <= DEFAULT_VERIFY_TOL / 4:
        return DEFAULT_VERIFY_TOL / 2
    # Otherwise one broadcast product and a transposed view give the exact
    # residual, so the messages that report it keep their bits; the gemm
    # above would change them (test_residual_message_matches_the_whole_g_residual).
    lifted = basis @ part
    lifted -= shifted.transpose(0, 2, 1)
    return np.max(np.abs(lifted))


def _residual_norms(basis: np.ndarray, sub: np.ndarray, table: np.ndarray, elements):
    """The Frobenius norms of ``basis @ sub[x] - R(x) basis`` for each ``x`` in ``elements``."""
    elements = list(elements)
    off = basis @ sub[elements]
    off -= basis[table[:, elements]].transpose(1, 0, 2)
    return np.linalg.norm(off, axis=(1, 2))


def _invariance_certificate(basis: np.ndarray, sub: np.ndarray, group: FiniteGroup, depth: int):
    """Whether the residuals at the identity and the generators prove every
    slice's :func:`_slice_residual` at most ``DEFAULT_VERIFY_TOL / 2``.

    ``sub`` is the catalog of :func:`_catalog_slices` and ``depth`` that of
    :func:`_generator_walk`, which must reach every element.  A NaN anywhere
    in ``sub`` or in the residuals, or a negative tolerance, fails it.
    """
    # For B = basis, S(g) = B^* R(g) B and E(g) = R(g) B - B S(g), since R is
    # a homomorphism, E(gs) = E(g) S(s) + (I - B B^*) R(g) E(s) for any B.
    # Both factors have norm at most 1 + eta, eta = ||B^* B - I||_2, so at
    # the walk's depth D every E(g) has
    #     ||E(g)||_2 <= (1 + eta)^D (||E(e)||_2 + D max_s ||E(s)||_2),
    # and every entry of the exact residual B S(g) - R(g) B is below that.
    # The rest is rounding, bounded by counting roundings generously: gamma
    # covers an inner product of length n or d, and d * gamma is below 1e-10
    # for every order compute_irreps admits.  The computed ``sub`` is off
    # from S(g) by at most d gamma (1 + eta) in norm, and the slice residual
    # adds gamma ||B row|| ||sub column|| per entry and the rounding of its
    # subtraction, all within ``rounding`` and the last factor below.
    n, d = basis.shape
    gamma = 2 * (n + d + 4) * np.finfo(float).eps
    gram = basis.conj().T @ basis - np.eye(d)
    kappa = 1 + np.linalg.norm(gram) * (1 + 4 * d * gamma) + 2 * d * gamma
    rounding = d * gamma * kappa * (kappa + np.sqrt(d) * np.abs(sub).max())
    norms = _residual_norms(basis, sub, group.mult_table, (group.identity, *group.generators))
    steps = norms * (1 + 2 * d * gamma) + rounding
    bound = kappa**depth * (steps[0] + depth * max(steps[1:], default=0.0))
    return (1 + gamma) * (bound + rounding) <= DEFAULT_VERIFY_TOL / 4


def _invariant_catalog(
    basis: np.ndarray, group: FiniteGroup, depth: int | None, idx: int
) -> np.ndarray:
    """Cluster ``idx``'s catalog ``sub[g] = basis^* R(g) basis``, once its
    basis is shown to span an invariant subspace.

    :func:`_invariance_certificate` shows it from the generators, when
    ``depth`` is the depth of a walk that reaches every element.  Otherwise
    the residual is the largest :func:`_slice_residual` over every slice,
    and one above ``DEFAULT_VERIFY_TOL``, or NaN, raises
    :class:`NumericalError`.
    """
    n, d = basis.shape
    table = group.mult_table
    # ``sub`` is the catalog: a BLAS product would change its bits.  It is
    # built over 32 elements g at a time, so no |G| x |G| x d array is held;
    # each slice's einsum gives the bits of the whole-g call.
    sub = np.empty((n, d, d), dtype=complex)
    for _ in _catalog_slices(basis, table, sub):
        pass
    if depth is not None and _invariance_certificate(basis, sub, group, depth):
        return sub
    # The slices again, with the same bits, each with its residual: a gemm
    # first, and the exact broadcast matmul only for a slice that the gemm
    # cannot pass.  A NaN peak carries through ``np.max`` and fails the test.
    residual = np.max(
        [_slice_residual(basis, part, shifted) for part, shifted in _catalog_slices(basis, table, sub)]
    )
    if not residual <= DEFAULT_VERIFY_TOL:
        raise NumericalError(
            f"irrep split: eigenvalue cluster {idx} is not an invariant subspace "
            f"(residual {residual:.3e})"
        )
    return sub


def _decompose_regular(
    group: FiniteGroup, classes: list[ConjugacyClass], rng: np.random.Generator
):
    """Images of each irrep, built from the first eigenvalue cluster that carries it."""
    n = group.order
    table = group.mult_table
    # The seed matrix is dropped once averaged, so the per-irrep loop holds
    # only the eigenvectors.
    averaged = _average_conjugates(_random_hermitian(rng, n), table)
    eigenvalues, eigenvectors = np.linalg.eigh(averaged)
    del averaged
    # Generators that miss an element certify nothing, so every slice's
    # residual is taken instead.
    steps, depth = _generator_walk(group)
    if len(steps) != n - 1:
        depth = None
    # One eigenspace's eigenvalues agree to ~1e-14 up to |G| = 720, while
    # distinct ones come within ~1e-6; merging two costs a whole retry.
    spans = _cluster_spans(eigenvalues, 1e-10 * n)
    class_cols = table[:, [c.representative for c in classes]].T
    sizes = np.array([c.size for c in classes])
    found = []
    kept = np.zeros((0, len(classes)), dtype=complex)
    for idx, (lo, hi) in enumerate(spans):
        basis = eigenvectors[:, lo:hi]
        class_char = np.einsum("ai,cai->c", basis.conj(), basis[class_cols])
        norm = float(sizes @ np.abs(class_char) ** 2) / n
        # Written so that a NaN norm fails: a NaN anywhere in the cluster's
        # basis reaches the identity class's character, so it is refused here
        # and never counted as a new irrep below.
        if not abs(norm - 1) <= CHARACTER_TOL:
            raise NumericalError(
                f"irrep split: reducible eigenvalue cluster {idx} ({hi - lo}-dimensional): "
                f"character norm {norm:.6f} departs from 1"
            )
        # An irrep of dimension d spans d clusters; build it from the first.
        if np.any(np.max(np.abs(kept - class_char), axis=1) <= CHARACTER_TOL):
            continue
        kept = np.vstack([kept, class_char])
        found.append(_invariant_catalog(basis, group, depth, idx))
    return found


def compute_irreps(group: FiniteGroup, seed: int = 0) -> IrrepSet:
    """Compute all irreps of a group by splitting its regular representation.

    A random Hermitian matrix is averaged over conjugation by the regular
    representation; its eigenspaces (eigenvalues closer than ``1e-10 * |G|``
    form one cluster) are invariant subspaces, and generically each is one
    copy of an irrep, so an irrep of dimension ``d`` fills ``d`` clusters.
    Each cluster's character at the conjugacy-class representatives shows
    whether it is irreducible and which irrep it carries; only the first
    cluster of each irrep is turned into matrices.  The irreps are then
    sorted canonically.  A reducible cluster, which takes an accidental
    eigenvalue coincidence, fails the attempt like any failed check; it and
    a cluster that is not an invariant subspace are ``irrep split`` errors.

    The whole procedure is deterministic given ``(group, seed)``.  Each
    attempt uses a child seed spawned from ``seed``; after ``MAX_RETRIES``
    failed attempts an ``irrep retries`` :class:`NumericalError` carrying
    every attempt's message is raised.  Its time grows as ``|G|^3`` and its
    memory as ``|G|^2``, since each irrep is built over slices of the group;
    a group of order above ``MAX_COMPUTED_ORDER`` raises
    :class:`ConsistencyError` before any work.
    """
    if group.order > MAX_COMPUTED_ORDER:
        raise ConsistencyError(
            f"compute_irreps: group order {group.order} exceeds the limit "
            f"MAX_COMPUTED_ORDER = {MAX_COMPUTED_ORDER}; its time grows as |G|^3"
        )
    classes = conjugacy_classes(group)
    failures = []
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
        )
        try:
            mats_list = _decompose_regular(group, classes, rng)
            irrep_set = IrrepSet(
                group=group, irreps=_sort_irreps(group, mats_list, classes)
            )
            _validate_irrep_set(irrep_set)
            return irrep_set
        except NumericalError as exc:
            failures.append(f"attempt {attempt}: {exc}")
    raise NumericalError(
        f"irrep retries: irreducible decomposition failed for every seed derived from {seed}: "
        + "; ".join(failures)
    )


def _projector_ranks(characters: np.ndarray, ctx: SubgroupContext, label: str) -> list[int]:
    """Ranks of the projectors ``P = (1/|H|) sum_{h in H} rho(h)``, which are their traces.

    ``characters`` holds one character per row.  ``P`` is an orthogonal
    projector, so ``rank P = tr P = (1/|H|) sum_{h in H} chi(h)``, the
    multiplicity of the irrep in the coset module (Frobenius reciprocity).
    A trace not within ``RANK_TRACE_TOL`` of an integer, NaN included, raises
    :class:`NumericalError` naming the first row that is off through
    ``label.format(row)``, since no unitary irrep gives one.
    """
    traces = characters[:, ctx.sorted_members].mean(axis=1)
    nearest = np.round(traces.real)
    off = np.flatnonzero(~(np.abs(traces - nearest) <= RANK_TRACE_TOL))
    if off.size:
        idx = int(off[0])
        raise NumericalError(
            f"rank identity: {label.format(idx)}, tr P = {traces[idx].real:.12g}"
            f"{traces[idx].imag:+.3g}j is not within {RANK_TRACE_TOL:g} of an integer"
        )
    return nearest.astype(int).tolist()


def subgroup_ranks(irrep_set: IrrepSet, ctx: SubgroupContext) -> list[int]:
    """Every irrep's projector rank, checked by the rank identity ``sum d * r = n``.

    Rank ``i`` is ``tr P``, the mean of row ``i`` of the set's
    :attr:`~IrrepSet.character_table` over the subgroup (see
    :func:`_projector_ranks`), taken for all irreps in one expression.  A
    trace further than ``RANK_TRACE_TOL`` from an integer raises
    :class:`NumericalError` naming the first irrep that is off.  A violated
    identity means the irrep list is incomplete or duplicated and raises
    :class:`NumericalError` naming the rank-identity stage.
    """
    if irrep_set.group is not ctx.group:
        raise ConsistencyError("irrep and subgroup context belong to different groups")
    ranks = _projector_ranks(irrep_set.character_table, ctx, "irrep {}")
    weighted = sum(r.dim * rank for r, rank in zip(irrep_set, ranks))
    if weighted != ctx.index_n:
        raise NumericalError(
            f"rank identity: dimension-weighted ranks sum to {weighted}, "
            f"expected {ctx.index_n}; irrep list is incomplete or duplicated"
        )
    return ranks


def subgroup_sum(irrep: Irrep, ctx: SubgroupContext) -> SubgroupSumImage:
    """Sum the irrep over the context's subgroup, with the rank of that sum.

    The sum is ``|H|`` times the projector ``P``, and its rank is the exact
    integer ``tr P`` read off the character (see :func:`_projector_ranks`).
    For the trivial subgroup the sum is the identity (rank equal to the irrep
    dimension); for the full group it is zero unless the irrep is trivial.
    """
    if irrep.group is not ctx.group:
        raise ConsistencyError("irrep and subgroup context belong to different groups")
    (rank,) = _projector_ranks(irrep.character[None], ctx, f"{irrep.dim}-dimensional irrep")
    matrix = irrep.matrices[ctx.sorted_members].sum(axis=0)
    return SubgroupSumImage(matrix=matrix, rank=rank)


def verify_rank_identity(irrep_set: IrrepSet, ctx: SubgroupContext) -> bool:
    """Check that dimension-weighted subgroup-sum ranks add up to the coset count.

    A projector trace that is not integral fails the check.
    """
    try:
        subgroup_ranks(irrep_set, ctx)
    except NumericalError:
        return False
    return True


def verify_great_orthogonality(irrep_set: IrrepSet, tol: float = DEFAULT_VERIFY_TOL) -> bool:
    """Check orthonormality of all scaled matrix-entry functions.

    The entry functions ``g -> sqrt(dim/|G|) * matrices[g][i, j]``, collected
    over all irreps, must form an orthonormal family in the inner product
    ``<x, y> = sum_g conj(x(g)) y(g)``.
    """
    group = irrep_set.group
    n = group.order
    columns = [
        r.matrices.reshape(n, r.dim * r.dim) * np.sqrt(r.dim / n) for r in irrep_set
    ]
    w = np.hstack(columns)
    gram = w.conj().T @ w
    return float(np.max(np.abs(gram - np.eye(w.shape[1])))) <= tol


def verify_character_orthogonality(irrep_set: IrrepSet, tol: float = DEFAULT_VERIFY_TOL) -> bool:
    """Check both character orthogonality relations on the class table.

    Rows: ``sum_g chi_a(g) conj(chi_b(g)) = |G| delta_ab``.  Columns: for
    class representatives ``g, g'``, ``sum_r chi_r(g) conj(chi_r(g')) =
    (|G| / |class(g)|) delta``.
    """
    group = irrep_set.group
    n = group.order
    classes = conjugacy_classes(group)
    reps = [c.representative for c in classes]
    sizes = np.array([c.size for c in classes], dtype=float)
    table = irrep_set.character_table[:, reps]
    scale = tol * max(1.0, float(n))
    rows = table @ np.diag(sizes) @ table.conj().T
    if np.max(np.abs(rows - n * np.eye(len(table)))) > scale:
        return False
    cols = table.conj().T @ table
    if np.max(np.abs(cols - np.diag(n / sizes))) > scale:
        return False
    return True
