"""Lift spectra and eigenvector bases computed blockwise through irreps.

The base matrix of a voltage graph, pushed through a ``d``-dimensional irrep,
becomes a ``dk x dk`` complex matrix.  Its eigenvalues enter the lift
spectrum with multiplicity equal to the rank of the irrep's subgroup sum,
and its eigenvectors pull back to lift eigenvectors through the irrep's
coset sums, one irrep at a time.  Consecutive irreps of one dimension have
their images built and eigensolved as stacks of bounded size.  The basis is
chosen per irrep from independent rows of the subgroup projector, and
residuals are checked by gathering over the base arcs, so nothing here
builds the lift itself except the oracle cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NumericalError
from .irreps import Irrep, IrrepSet, subgroup_ranks
from .permgroup import SubgroupContext
from .voltage import (
    BaseMatrix,
    VoltageGraph,
    _json_value,
    _lift_terms,
    build_base_matrix,
    build_lift,
)

DEFAULT_MATCH_TOL = 1e-7
DEFAULT_RESIDUAL_TOL = 1e-8
ZERO_TOL = 1e-10
HERMITIAN_TOL = 1e-12
FULL_RANK_TOL = 1e-10
PIVOT_TIE_TOL = 1e-9
# Complex entries in one stack of irrep images (1 MiB).  Consecutive irreps
# of one dimension have their images built and solved in slices of at most
# this many entries, and of at least one image, so a route's peak memory
# stays near that of one image however many irreps share the dimension.
IMAGE_STACK_ENTRIES = 1 << 16
# The widest irrep image, ``d * k``, that ``irrep_image`` builds.  One such
# complex image takes 256 MiB; ``eigh`` of one took 161 s and 1.3 GB peak
# RSS with one OpenBLAS thread on a 2-vCPU Xeon, against 0.7 s at 768 wide.
MAX_IMAGE_WIDTH = 4096


@dataclass(frozen=True, eq=False)
class IrrepImage:
    """A base matrix pushed through one irrep: blocks ``rho(B[u, v])``.

    ``matrix`` is ``dk x dk``, or a ``(b, dk, dk)`` stack when
    :func:`irrep_image` was given a sequence of ``b`` irreps.
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class SpectrumEntry:
    """One merged eigenvalue with its total multiplicity in the lift.

    ``provenance`` lists ``(irrep index, irrep dimension, rank factor)`` for
    every irrep contributing to this eigenvalue.
    """

    value: complex
    count: int
    provenance: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The complete lift spectrum as merged entries summing to ``kn``, kept as arrays.

    Entry ``e`` has the value ``values[e]`` (complex, ascending), the total
    multiplicity ``counts[e]`` and the provenance tags ``provenance[e]``;
    both arrays are read-only.  ``entries``, one :class:`SpectrumEntry` per
    merged value, is built the first time it is read.
    """

    values: np.ndarray
    counts: np.ndarray
    provenance: tuple[tuple[tuple[int, int, int], ...], ...]
    total: int

    @functools.cached_property
    def entries(self) -> tuple[SpectrumEntry, ...]:
        """One :class:`SpectrumEntry` per merged value, in order, built on first read."""
        return tuple(
            map(SpectrumEntry, self.values.tolist(), self.counts.tolist(), self.provenance)
        )

    def expand(self) -> np.ndarray:
        """The full eigenvalue multiset, sorted, one copy per multiplicity."""
        return np.repeat(self.values, self.counts)

    def _document(self) -> dict:
        return {
            "kn": self.total,
            "eigenvalues": [
                {
                    "value": value,
                    "count": count,
                    "provenance": [{"irrep": i, "dim": d, "rank": r} for i, d, r in tags],
                }
                for value, count, tags in zip(
                    self.values.tolist(), self.counts.tolist(), self.provenance
                )
            ],
        }

    def to_json(self) -> dict:
        return _json_value(self._document())


@dataclass(frozen=True, eq=False)
class EigenvectorColumn:
    """One pulled-back column, tagged by its origin.

    ``irrep`` indexes the irrep set, ``j`` the coset-sum row block, and
    ``(w, i)`` the eigenvector column of the irrep image it came from.
    """

    vector: np.ndarray
    eigenvalue: complex
    irrep: int
    j: int
    w: int
    i: int
    zero: bool
    selected: bool


@dataclass(frozen=True, eq=False)
class IrrepColumns:
    """The pulled-back columns of one irrep, kept as arrays.

    ``pulled`` is C-contiguous, of shape ``(kn, d * dk)``: its column
    ``j * dk + c`` comes from coset-sum row ``j`` and image eigenvector
    ``c``, whose eigenvalue is ``eigenvalues[c]``.  Every column of a row in
    ``picked`` is selected, and ``zero`` flags the columns that vanish.
    """

    dim: int
    pulled: np.ndarray
    eigenvalues: np.ndarray
    picked: tuple[int, ...]
    zero: np.ndarray

    @property
    def selected(self) -> np.ndarray:
        """Per-column flags: whether the column's row ``j`` is picked."""
        rows = np.zeros(self.dim, dtype=bool)
        rows[list(self.picked)] = True
        return np.repeat(rows, self.eigenvalues.size)


@dataclass(frozen=True, eq=False)
class EigenvectorBundle:
    """All pulled-back columns plus a selected basis of exactly ``kn`` of them.

    The columns are held per irrep as arrays (``blocks``), in irrep order;
    ``selected_basis`` indexes them in that order.  ``columns``, one tagged
    :class:`EigenvectorColumn` per pulled column whose ``vector`` is a view
    into its block, is built the first time it is read.
    """

    blocks: tuple[IrrepColumns, ...]
    selected_basis: tuple[int, ...]
    kn: int

    @functools.cached_property
    def columns(self) -> tuple[EigenvectorColumn, ...]:
        """One tagged column per pulled column, in bundle order, built on first read."""
        columns = []
        for idx, block in enumerate(self.blocks):
            d = block.dim
            dk = block.eigenvalues.size
            for col in range(block.pulled.shape[1]):
                j, c = divmod(col, dk)
                columns.append(
                    EigenvectorColumn(
                        vector=block.pulled[:, col],
                        eigenvalue=complex(block.eigenvalues[c]),
                        irrep=idx,
                        j=j,
                        w=c // d,
                        i=c % d,
                        zero=bool(block.zero[col]),
                        selected=j in block.picked,
                    )
                )
        return tuple(columns)

    def matrix(self) -> np.ndarray:
        return np.hstack([block.pulled for block in self.blocks])

    def _document(self) -> dict:
        """The columns in bundle order, each ``vector`` a view into its block."""
        columns = []
        for idx, block in enumerate(self.blocks):
            d = block.dim
            dk = block.eigenvalues.size
            eigenvalues = block.eigenvalues.tolist()
            per_column = zip(block.pulled.T, block.selected.tolist(), block.zero.tolist())
            for col, (vector, selected, zero) in enumerate(per_column):
                j, c = divmod(col, dk)
                columns.append(
                    {
                        "eigenvalue": eigenvalues[c],
                        "irrep": idx,
                        "j": j,
                        "w": c // d,
                        "i": c % d,
                        "vector": vector,
                        "selected": selected,
                        "zero": zero,
                    }
                )
        return {"kn": self.kn, "selected": self.selected_basis, "columns": columns}

    def to_json(self) -> dict:
        return _json_value(self._document())


def _check_image_width(d: int, k: int) -> None:
    if d * k > MAX_IMAGE_WIDTH:
        raise ConsistencyError(
            f"irrep image of a {d}-dimensional irrep on k = {k} base vertices is "
            f"d*k = {d * k} wide, above MAX_IMAGE_WIDTH = {MAX_IMAGE_WIDTH}"
        )


def irrep_image(base: BaseMatrix, irrep: Irrep | Sequence[Irrep]) -> IrrepImage:
    """Apply an irrep entrywise to a base matrix, producing a ``dk x dk`` block matrix.

    Block ``(u, v)`` is ``sum c * rho(g)`` over the rows of the base
    matrix's voltage table at ``(u, v)``.  ``irrep`` is one :class:`Irrep`,
    or a sequence of irreps of one dimension, whose images come back as one
    ``(b, dk, dk)`` stack in sequence order.  One ``np.add.at`` adds every
    image's terms unbuffered and in table order, which is each entry's
    coefficient order, so every block sums its terms in the same order as an
    entrywise loop and each image has the same bits, stacked or alone.  An
    image wider than ``MAX_IMAGE_WIDTH`` raises :class:`ConsistencyError`
    before anything is allocated.
    """
    irreps = (irrep,) if isinstance(irrep, Irrep) else tuple(irrep)
    if not irreps:
        raise ValueError("irrep_image needs at least one irrep")
    d = irreps[0].dim
    for r in irreps:
        if r.group is not base.group:
            raise ConsistencyError("base matrix and irrep belong to different groups")
        if r.dim != d:
            raise ValueError("irrep_image stacks irreps of one dimension only")
    b = len(irreps)
    k = base.k
    _check_image_width(d, k)
    table = base.voltage_table
    # Complex before the in-place product, whatever dtype the irreps hold.
    terms = np.array([r.matrices[table.g] for r in irreps], dtype=complex)
    np.multiply(table.c.astype(complex)[:, None, None], terms, out=terms)
    # Added through a view in block order, so the stack needs no copy.
    stack = np.zeros((b, k, d, k, d), dtype=complex)
    np.add.at(stack.transpose(0, 1, 3, 2, 4), (slice(None), table.u, table.v), terms)
    stack = stack.reshape(b, d * k, d * k)
    return IrrepImage(matrix=stack[0] if isinstance(irrep, Irrep) else stack)


def is_hermitian(matrix: np.ndarray) -> bool | np.ndarray:
    """Whether ``M`` equals its conjugate transpose within ``HERMITIAN_TOL * max(1, max|M|)``.

    On a ``(b, n, n)`` stack, one flag per matrix, each against its own
    ``max|M|``.
    """
    skew = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    flags = skew <= HERMITIAN_TOL
    # A skew within HERMITIAN_TOL passes whatever the scale, so ``max|M|`` is
    # taken only when some skew is above it or is NaN; a non-finite entry
    # always gives a non-finite skew, so it takes this path too.
    if not flags.all():
        scale = np.abs(matrix).max(axis=(-2, -1), initial=0.0)
        flags = skew <= HERMITIAN_TOL * np.maximum(1.0, scale)
    return bool(flags) if flags.ndim == 0 else flags


def eig_dense(
    matrix: np.ndarray, hermitian_hint: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigendecomposition with a residual guarantee.

    Eigenvalues are sorted ascending by (real, imaginary) with matching
    eigenvector columns; with ``hermitian_hint`` the eigenvalues come back as
    a real array, in the ascending order LAPACK's Hermitian solver already
    returns them in, so only the general path sorts.  The residual
    ``max |M U - U diag|`` must stay within ``DEFAULT_RESIDUAL_TOL * max|M|``
    or a :class:`NumericalError` is raised; a NaN residual is not within.  A
    ``(b, n, n)`` stack is solved in one call, as ``numpy.linalg`` does, and
    each matrix's residual is held to its own ``max|M|``; every matrix gets
    the bits it gets alone.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("eig_dense needs a square matrix")
    # ``max|M|`` is not finite exactly when an entry is not: NaN propagates.
    scale = np.abs(matrix).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():
        raise NumericalError("eigensolve: matrix has non-finite entries")
    if hermitian_hint:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    else:
        eigenvalues, eigenvectors = np.linalg.eig(matrix)
        order = np.lexsort((eigenvalues.imag, eigenvalues.real), axis=-1)
        eigenvalues = np.take_along_axis(eigenvalues, order, axis=-1)
        eigenvectors = np.take_along_axis(eigenvectors, order[..., None, :], axis=-1)
    residual = np.abs(
        matrix @ eigenvectors - eigenvectors * eigenvalues[..., None, :]
    ).max(axis=(-2, -1), initial=0.0)
    failed = ~(residual <= DEFAULT_RESIDUAL_TOL * np.maximum(1.0, scale))
    if failed.any():
        raise NumericalError(
            f"eigensolve: residual {residual.flat[failed.argmax()]:.3e} exceeds tolerance"
        )
    return eigenvalues, eigenvectors


def _check_lift_inputs(base: BaseMatrix, irrep_set: IrrepSet, ctx: SubgroupContext) -> None:
    """Refuse inputs that neither lift route accepts."""
    if base.group is not irrep_set.group or base.group is not ctx.group:
        raise ConsistencyError("base matrix, irreps, and context must share one group")
    if base.directed:
        raise ConsistencyError(
            "spectral lift routines need an undirected base; "
            "use the character route for digraph regular lifts"
        )


def _image_eigensystems(base: BaseMatrix, source, indices):
    """Yield ``(idx, eigenvalues, eigenvectors)`` of the source's images of ``indices``, in order.

    Each run of consecutive irreps of one dimension is cut into slices of at
    most ``IMAGE_STACK_ENTRIES`` image entries (at least one irrep each).  A
    slice's images come from one ``source.images`` call, are tested for
    Hermitian symmetry together and are solved by one :func:`eig_dense`
    call, and every image gets the real ascending eigenvalues and the bits
    of a solve of it alone.  Slices are taken in irrep order, and a slice is
    refused whole: if any of its images is not Hermitian (a unitary irrep on
    an undirected base always is), :class:`NumericalError` names the first
    such irrep, and if its eigensolve fails, :func:`eig_dense`'s error is
    raised; either way none of the slice's irreps is yielded.  An image of
    ``indices`` wider than ``MAX_IMAGE_WIDTH`` is refused before any slice
    is built, with :func:`irrep_image`'s error for the first such irrep.
    """
    for idx in indices:
        _check_image_width(source.dims[idx], base.k)
    for d, run in itertools.groupby(indices, source.dims.__getitem__):
        run = list(run)
        size = max(1, IMAGE_STACK_ENTRIES // max(1, (d * base.k) ** 2))
        for start in range(0, len(run), size):
            part = run[start : start + size]
            images = source.images(base, part)
            hermitian = is_hermitian(images)
            if not hermitian.all():
                raise NumericalError(
                    f"image eigensolve: irrep {part[int(hermitian.argmin())]}, "
                    "image is not Hermitian; irreps must be unitary"
                )
            yield from zip(part, *eig_dense(images, hermitian_hint=True))


def _merge_spectra(
    spectra: list[np.ndarray], tags: list[tuple[int, int, int]], match_tol: float
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[tuple[int, int, int], ...], ...]]:
    """Merge real image spectra into entries, working on one sorted array.

    ``spectra[i]`` is a real eigenvalue array whose values each count
    ``tags[i][2]`` times and carry the provenance tag ``tags[i]``.  One
    stable sort orders all values (their imaginary parts are zero), so ties
    keep irrep-then-eigenvalue order.  The smallest unmerged value anchors an
    entry, which takes every later value ``x`` with
    ``abs(x - anchor) <= match_tol``; the first value outside opens the next
    entry.  The rule is not transitive: values spaced closer than
    ``match_tol`` can still fall into different entries.  An entry's count is
    the sum of its values' counts and its provenance the sorted distinct tags.
    The entries come back as :class:`SpectrumReport` holds them: read-only
    arrays of values (complex) and counts, and one provenance tuple each.
    """
    values = np.concatenate(spectra)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    owner = np.repeat(np.arange(len(spectra)), [s.size for s in spectra])[order]
    points = ordered.tolist()
    # A rounded difference never shrinks as the earlier value falls, so a
    # value further than match_tol from its left neighbour is further from
    # every earlier anchor and opens an entry.  Only the values within reach
    # of their neighbour are tested against the running anchor, in order.
    near = (np.abs(ordered[1:] - ordered[:-1]) <= match_tol).nonzero()[0].tolist()
    merged = []
    anchor = previous = -1
    for left in near:
        if left != previous:
            anchor = left
        pos = left + 1
        if abs(points[pos] - points[anchor]) <= match_tol:
            merged.append(pos)
        else:
            anchor = pos
        previous = pos
    is_anchor = np.ones(len(points), dtype=bool)
    is_anchor[merged] = False
    anchors = is_anchor.nonzero()[0]

    weights = np.array([tag[2] for tag in tags], dtype=np.intp)
    counts = np.add.reduceat(weights[owner], anchors)
    single = [(tag,) for tag in tags]
    provenance = [single[o] for o in owner[anchors].tolist()]
    if merged:
        owners = owner.tolist()
        bounds = anchors.tolist() + [len(points)]
        for e in set(np.searchsorted(anchors, merged, side="right").tolist()):
            distinct = sorted(set(owners[bounds[e - 1] : bounds[e]]))
            provenance[e - 1] = tuple(tags[o] for o in distinct)
    firsts = ordered[anchors].astype(complex)
    firsts.flags.writeable = False
    counts.flags.writeable = False
    return firsts, counts, tuple(provenance)


def lift_spectrum(
    base: BaseMatrix,
    irrep_set: IrrepSet,
    ctx: SubgroupContext,
    match_tol: float = DEFAULT_MATCH_TOL,
) -> SpectrumReport:
    """Assemble the full lift spectrum from per-irrep image eigenvalues.

    Each irrep contributes the spectrum of its base-matrix image, repeated by
    the rank of ``P = (1/|H|) sum_{h in H} rho(h)``.  That rank, also the
    provenance rank, is the exact integer ``tr P``, read off the character
    mean over ``H`` (Frobenius reciprocity) as in :func:`lift_eigenvectors`.
    The dimension-weighted ranks must add up to the coset count, and every
    image of nonzero rank must be Hermitian; a violation raises
    :class:`NumericalError` naming its stage.  The images of nonzero rank
    are solved in slices of consecutive irreps of one dimension, taken in
    irrep order, and a slice with a failing image is refused whole
    (:func:`_image_eigensystems`); every image gets the bits of its own
    solve, and only their eigenvalues are kept.  The images' real eigenvalue
    arrays are merged as one sorted array (:func:`_merge_spectra`): each
    entry is anchored at its smallest value and takes every value within
    ``match_tol`` of that anchor, with the combined multiplicity.  The
    multiplicities must add up to ``kn``, or a ``spectrum merge`` error is
    raised.
    """
    _check_lift_inputs(base, irrep_set, ctx)
    return _lift_spectrum(base, _image_source(irrep_set, ctx), match_tol)


def _lift_spectrum(base: BaseMatrix, source, match_tol: float) -> SpectrumReport:
    """:func:`lift_spectrum` on an image source; of ``base`` it reads ``voltage_table`` and ``k``."""
    ranks = source.ranks
    used = [idx for idx, rank in enumerate(ranks) if rank]
    spectra = [values for _, values, _ in _image_eigensystems(base, source, used)]
    tags = [(idx, source.dims[idx], ranks[idx]) for idx in used]
    values, counts, provenance = _merge_spectra(spectra, tags, match_tol)
    total = int(counts.sum())
    if total != base.k * source.n:
        raise NumericalError(
            f"spectrum merge: spectrum size {total} does not match lift order "
            f"{base.k * source.n}"
        )
    return SpectrumReport(values=values, counts=counts, provenance=provenance, total=total)


def _coset_sums(irrep: Irrep, ctx: SubgroupContext) -> np.ndarray:
    """The ``n x d x d`` array whose slice ``J`` sums the irrep over coset ``J``.

    Coset 0 is the subgroup itself, so slice 0 is ``|H|`` times the
    projector ``P = (1/|H|) sum_{h in H} rho(h)``.
    """
    size = ctx.sorted_members.size
    d = irrep.dim
    return irrep.matrices[ctx.coset_order].reshape(ctx.index_n, size, d, d).sum(axis=1)


def _select_rows(idx: int, sums: np.ndarray, projector: np.ndarray, rank: int) -> list[int]:
    """``rank`` rows of ``P`` whose coset sums have full rank ``rank * d``.

    Greedy pivoted Gram-Schmidt on the ``d x d`` projector: each step takes
    the row with the largest residual norm and projects it out of the rest.
    Among rows whose norms tie up to rounding, the lowest index wins, so
    rounding noise does not decide the selection.
    """
    residual = projector.astype(complex)
    picked: list[int] = []
    for _ in range(rank):
        norms = np.linalg.norm(residual, axis=1)
        j = int(np.flatnonzero(norms >= (1.0 - PIVOT_TIE_TOL) * norms.max())[0])
        picked.append(j)
        if norms[j] > 0.0:
            q = residual[j] / norms[j]
            residual -= np.outer(residual @ q.conj(), q)
    picked.sort()
    if picked:
        n = sums.shape[0]
        stack = sums[:, picked, :].reshape(n, -1)
        singular_values = np.linalg.svd(stack, compute_uv=False)
        if stack.shape[1] > n or not singular_values[-1] > FULL_RANK_TOL * singular_values[0]:
            raise NumericalError(
                f"basis selection: irrep {idx}, coset sums of rows {picked} "
                f"do not reach rank {stack.shape[1]}"
            )
    return picked


@dataclass(eq=False)
class _IrrepSource:
    """An irrep set over a subgroup as both lift routes read it, through these names only.

    ``n`` is the lift index, ``dims`` and ``ranks`` give each irrep's
    dimension and projector rank, and :meth:`images` its images.  The
    eigenvector half is ``None`` until :func:`_image_source` fills it: the
    ``coset_action`` table and, per irrep, the rows picked by
    :func:`_select_rows` and its coset sums as one read-only ``(d, n*d)``
    array whose entry ``[m, J*d + j]`` is ``_coset_sums(...)[J, j, m]``.
    """

    irreps: tuple[Irrep, ...]
    dims: tuple[int, ...]
    n: int
    ranks: tuple[int, ...]
    coset_action: np.ndarray | None = None
    sums: tuple[np.ndarray, ...] | None = None
    picked: tuple[tuple[int, ...], ...] | None = None

    def images(self, base: BaseMatrix, indices: Sequence[int]) -> np.ndarray:
        """The ``(b, dk, dk)`` images of irreps ``indices``, of one dimension, in order."""
        return irrep_image(base, [self.irreps[idx] for idx in indices]).matrix


def _image_source(irrep_set: IrrepSet, ctx: SubgroupContext, pull_back: bool = False):
    """The image source of ``(irrep_set, ctx)``, kept in ``irrep_set.image_sources``.

    Built on first use, with its ranks checked by :func:`subgroup_ranks`;
    it holds neither object.  With ``pull_back`` its eigenvector half is
    filled if it is not yet: every irrep's coset sums must be finite,
    whatever its rank, or :class:`NumericalError` names the irrep.  Nothing
    that fails a check is kept, so a failing pair raises on every call.
    """
    source = irrep_set.image_sources.get(ctx)
    if source is None:
        ranks = tuple(subgroup_ranks(irrep_set, ctx))
        source = _IrrepSource(irrep_set.irreps, irrep_set.dims, ctx.index_n, ranks)
        irrep_set.image_sources[ctx] = source
    if pull_back and source.picked is None:
        sums = []
        picked = []
        for idx, (irrep, rank) in enumerate(zip(irrep_set, source.ranks)):
            coset_sums = _coset_sums(irrep, ctx)
            if not np.isfinite(coset_sums).all():
                raise NumericalError(f"basis selection: irrep {idx}, coset sums are not finite")
            projector = coset_sums[0] / ctx.sorted_members.size
            picked.append(tuple(_select_rows(idx, coset_sums, projector, rank)))
            laid_out = coset_sums.transpose(2, 0, 1).reshape(irrep.dim, -1)
            laid_out.flags.writeable = False
            sums.append(laid_out)
        source.coset_action, source.sums = ctx.coset_action, tuple(sums)
        source.picked = tuple(picked)
    return source


def _pull_back(sums: np.ndarray, eigenvectors: np.ndarray, k: int) -> np.ndarray:
    """Pulled-back columns of one irrep as a C-contiguous ``(k, n, d, dk)`` array.

    ``sums`` is the source's ``(d, n*d)`` layout of the coset sums.  Entry
    ``[u, J, j, c]`` is ``sum_m sums[J, j, m] * U[u*d + m, c]``: row
    ``u*n + J`` of the lift, column ``(j, c)`` of the irrep's block.  The
    product is the one ``np.tensordot`` would form, row ``u*dk + c`` by
    column ``J*d + j``; it is written once, transposed, into the C-ordered
    block.  Writing it as ``product + 0.0`` turns the ``-0.0`` that these
    short sums can leave into ``0.0``, as a full matrix product gives.
    """
    d = sums.shape[0]
    dk = eigenvectors.shape[1]
    n = sums.shape[1] // d
    # Row u*dk + c of ``rows`` is U[u*d : (u+1)*d, c].
    rows = eigenvectors.reshape(k, d, dk).transpose(0, 2, 1).reshape(k * dk, d)
    # Allocate the block before the product, so that freeing the product
    # leaves no block-sized hole under the block.  Allocated the other way
    # round, ``eigvecs_sweep`` peak RSS rose by 7 MB (9 %) at every seed
    # tried (glibc malloc, x86_64).
    out = np.empty((k, n, d, dk), dtype=complex)
    product = np.dot(rows, sums).reshape(k, dk, n, d).transpose(0, 2, 3, 1)
    np.add(product, 0.0, out=out)
    return out


def _column_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a complex matrix whose last axis is contiguous.

    One ``einsum`` over the float view sums the squares of the real parts
    into the even slots and of the imaginary parts into the odd ones.
    """
    parts = matrix.view(float)
    squares = np.einsum("ij,ij->j", parts, parts)
    return np.sqrt(squares[0::2] + squares[1::2])


def _check_residuals(
    idx: int, terms: list, pulled: np.ndarray, values: np.ndarray, picked: tuple, tol: float
) -> np.ndarray:
    """Residual-check the columns of the picked rows in one irrep's ``(k, n, d, dk)`` block.

    Each checked column ``v`` is read as returned: ``A v - lambda v`` starts
    from ``-lambda v`` and adds ``A v`` arc by arc, never forming ``A``.  An
    arc ``u -> v`` with voltage ``a`` joins ``(u, J)`` to ``(v, J a)``, so
    row ``(u, J)`` gathers row ``(v, J a)`` of the columns.  A column fails
    unless its residual's norm is within ``tol * max(1, |v|)``, so a NaN
    fails.  Returns the norms ``|v|`` of the checked columns, in block order.

    The block is C-contiguous (:func:`_pull_back`), so when every row is
    picked the columns are read in place; otherwise ``take`` copies the
    picked rows once, which the many small gathers read faster than a
    strided view of one run of rows.  Every later reshape is a view.
    """
    k, n, d, dk = pulled.shape
    chosen = pulled if len(picked) == d else pulled.take(picked, axis=2)
    vectors = chosen.reshape(k, n, -1)
    residual = vectors * -np.tile(values, len(picked))
    for u, v, c, action in terms:
        gathered = vectors[v].take(action, axis=0)
        if c != 1:
            gathered *= c
        residual[u] += gathered
    residuals = _column_norms(residual.reshape(k * n, -1))
    norms = _column_norms(vectors.reshape(k * n, -1))
    failed = np.flatnonzero(~(residuals <= tol * np.maximum(1.0, norms)))
    if failed.size:
        j, c = divmod(int(failed[0]), dk)
        raise NumericalError(
            f"residual: irrep {idx}, column j={picked[j]} w={c // d} i={c % d} "
            f"fails the eigenvector residual bound ({residuals[failed[0]]:.3e})"
        )
    return norms


def _peak_zero_flags(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The ``zero`` flags of ``(kn, cols)`` blocks by the peak rule, block by block.

    A column is zero when its largest entry ``max_i |v_i|`` is at most
    ``ZERO_TOL`` times the largest entry of every block.
    """
    peaks = [np.max(np.abs(pulled), axis=0, initial=0.0) for pulled in blocks]
    global_peak = max((float(peak.max(initial=0.0)) for peak in peaks), default=0.0)
    return [peak <= ZERO_TOL * global_peak for peak in peaks]


def _zero_flags(blocks: list[np.ndarray], norms: list[np.ndarray], kn: int) -> list[np.ndarray]:
    """The flags of :func:`_peak_zero_flags`, decided from the blocks' column norms.

    ``norms[b]`` holds block ``b``'s column norms as :func:`_column_norms`
    computes them over the ``kn`` entries of each column.  A column's peak
    ``p = max_i |v_i|`` and its exact norm ``|v|`` satisfy
    ``p <= |v| <= sqrt(kn) p``.  With ``u = 2**-53``, the computed norm ``N``
    is within a relative ``(kn/2 + 2) u`` of ``|v|`` (``2 kn`` rounded
    squares summed in any order, one addition and ``sqrt``), plus an
    absolute ``sqrt(kn) 2**-537`` for squares that underflow.  The peak
    rule's complex ``abs`` (``hypot``, within an ulp) and its product with
    ``ZERO_TOL`` add ``2 u`` and ``u``, and each step of the bounds below a
    few ``u`` more.  The slack ``s = (kn + 16) 2**-52`` and the absolute
    ``TINY = 2**-500`` cover all of that at least twice over.

    With ``top`` the largest ``N``, the threshold that the peak rule
    computes, ``ZERO_TOL`` times its largest computed peak, lies between
    ``low = ZERO_TOL ((top (1-s) - TINY) (1-s) / sqrt(kn)) (1-s) - TINY``
    and ``high = ZERO_TOL (top (1+s) + TINY) (1+s) + TINY``.  A column with
    ``N (1+s) + TINY <= low`` has a computed peak at most ``low``, so the
    peak rule flags it; one with ``(N (1-s) - TINY) (1-s) / sqrt(kn) > high``
    has a computed peak above ``high``, so the rule does not.  No flag
    decided here can therefore differ from the rule's.  If any column lies
    between the two bounds, or any norm is not finite, or every norm is 0,
    the flags of the whole call come from :func:`_peak_zero_flags`.  The
    columns of a killed row hold rounding noise and those of a picked row
    are of order 1, so the fallback is rare: no ``eigvecs_sweep`` instance
    takes it.
    """
    every = np.concatenate(norms)
    top = float(every.max(initial=0.0))
    if 0.0 < top < math.inf:
        tiny = 2.0**-500
        up = 1.0 + (kn + 16) * 2.0**-52
        down = 2.0 - up
        low = ZERO_TOL * ((top * down - tiny) * down / math.sqrt(kn)) * down - tiny
        high = ZERO_TOL * (top * up + tiny) * up + tiny
        zero = every * up + tiny <= low
        if (zero | ((every * down - tiny) * (down / math.sqrt(kn)) > high)).all():
            edges = [0, *itertools.accumulate(n.size for n in norms)]
            return [zero[start:end] for start, end in itertools.pairwise(edges)]
    return _peak_zero_flags(blocks)


def lift_eigenvectors(
    base: BaseMatrix,
    irrep_set: IrrepSet,
    ctx: SubgroupContext,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> EigenvectorBundle:
    """Pull irrep-image eigenvectors back to a full lift eigenbasis, one irrep at a time.

    For an irrep of dimension ``d``, the coset sums of its rows times its
    ``dk x dk`` image eigenvectors give one tagged column per (row ``j``,
    image eigenvector); all ``k|G|`` columns are returned, held per irrep as
    a ``(kn, d * dk)`` array with its image eigenvalues, picked rows and
    ``zero`` mask (:class:`IrrepColumns`).  Flags and the selected basis are
    computed over whole blocks; no per-column object is built unless
    :attr:`EigenvectorBundle.columns` is read.  A column is flagged ``zero``
    when its largest entry is within ``ZERO_TOL`` of the largest entry over
    all columns, which happens exactly on the rows ``j`` that
    ``P = (1/|H|) sum_{h in H} rho(h)`` kills.  The flags are decided from
    the column norms by a certified bound, with that peak rule as the
    fallback (:func:`_zero_flags`); the residual check supplies the norms
    of every block whose rows are all picked.

    The rank of ``P`` is its trace (Frobenius reciprocity), and the
    dimension-weighted ranks must add up to ``n``.  Greedy pivoted
    Gram-Schmidt picks ``rank`` independent rows of ``P``, and every column
    of a picked row is selected: the coset sums of the picked rows must have
    full rank ``rank * d``, the image eigenvectors are unitary and distinct
    irreps pull back to orthogonal subspaces, so the ``kn`` selected columns
    form a basis.  Each selected column is residual-checked against the lift
    adjacency applied by gathering over the base arcs.  Any failed check
    raises :class:`NumericalError` naming its stage and irrep.

    The ranks, coset sums and picked rows depend on the irrep set and the
    subgroup only, never on the base graph: they come from the pair's image
    source (:func:`_image_source`), checked before any image is solved.
    The image eigensolves, the pull-back, the zero flags and the residual
    checks run on every call.  The images are solved in slices of
    consecutive irreps of one dimension, taken in irrep order, and a slice
    with an image that is not Hermitian or fails its eigensolve is refused
    whole (:func:`_image_eigensystems`), once every irrep of the slices
    before it has passed its own checks; each solved image is pulled back
    and checked as it comes.  Each irrep's block is written once,
    C-contiguous, by :func:`_pull_back`; the residual check and the
    ``(kn, d * dk)`` array returned read it in place.
    """
    _check_lift_inputs(base, irrep_set, ctx)
    return _lift_eigenvectors(base, _image_source(irrep_set, ctx, pull_back=True), residual_tol)


def _lift_eigenvectors(base: BaseMatrix, source, residual_tol: float) -> EigenvectorBundle:
    """:func:`lift_eigenvectors` on an image source whose eigenvector half is filled."""
    k = base.k
    kn = k * source.n
    terms = _lift_terms(base, source.coset_action)

    parts = []
    norms = []
    for idx, values, eigenvectors in _image_eigensystems(base, source, range(len(source.dims))):
        eigenvalues = np.asarray(values, dtype=complex)
        pulled = _pull_back(source.sums[idx], eigenvectors, k)
        picked = source.picked[idx]
        dim = source.dims[idx]
        if picked:
            checked = _check_residuals(idx, terms, pulled, eigenvalues, picked, residual_tol)
        pulled = pulled.reshape(kn, -1)
        # The residual check took the norm of every column if every row is picked.
        norms.append(checked if len(picked) == dim else _column_norms(pulled))
        parts.append((dim, eigenvalues, pulled, picked))
    zero_flags = _zero_flags([pulled for _, _, pulled, _ in parts], norms, kn)

    blocks: list[IrrepColumns] = []
    selected: list[int] = []
    offset = 0
    for idx, ((dim, eigenvalues, pulled, picked), zero) in enumerate(zip(parts, zero_flags)):
        dk = eigenvalues.size
        if picked:
            vanishing = zero.reshape(dim, dk)[list(picked)].any(axis=1)
            if vanishing.any():
                raise NumericalError(
                    f"basis selection: irrep {idx}, picked row "
                    f"j={picked[int(vanishing.argmax())]} pulls back to zero columns"
                )
        for j in picked:
            selected.extend(range(offset + j * dk, offset + (j + 1) * dk))
        offset += pulled.shape[1]
        blocks.append(
            IrrepColumns(dim=dim, pulled=pulled, eigenvalues=eigenvalues, picked=picked, zero=zero)
        )
    return EigenvectorBundle(blocks=tuple(blocks), selected_basis=tuple(selected), kn=kn)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of cross-checking the blockwise method against an explicit lift."""

    passed: bool
    spectral_distance: float
    max_residual: float
    kn: int
    selected_count: int

    def _document(self) -> dict:
        return {
            "passed": self.passed,
            "spectral_distance": self.spectral_distance,
            "max_residual": self.max_residual,
            "kn": self.kn,
            "selected_count": self.selected_count,
        }

    def to_json(self) -> dict:
        return _json_value(self._document())


def verify_against_oracle(
    graph: VoltageGraph,
    irrep_set: IrrepSet,
    ctx: SubgroupContext,
    match_tol: float = DEFAULT_MATCH_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> OracleReport:
    """Compare blockwise spectrum and eigenvectors with the explicit lift.

    The lift adjacency is built outright and eigendecomposed; the blockwise
    spectrum must match it as a sorted multiset within ``match_tol``, and
    every selected eigenvector column must satisfy the residual bound against
    the same adjacency.  A NaN imaginary part counts as non-real, and a NaN
    distance or residual is kept in the report and fails it.
    """
    if graph.directed:
        raise ConsistencyError("oracle verification needs an undirected base")
    base = build_base_matrix(graph)
    lift = build_lift(graph, ctx)
    reference = np.linalg.eigvalsh(lift.adjacency.astype(float))

    report = lift_spectrum(base, irrep_set, ctx, match_tol=match_tol)
    values = report.expand()
    if not np.max(np.abs(values.imag), initial=0.0) <= match_tol:
        raise NumericalError("oracle check: undirected lift produced non-real eigenvalues")
    computed = np.sort(values.real)
    if computed.shape != reference.shape:
        raise NumericalError(
            f"oracle check: spectrum sizes differ: "
            f"{computed.shape[0]} vs {reference.shape[0]}"
        )
    spectral_distance = float(np.max(np.abs(computed - reference), initial=0.0))

    bundle = lift_eigenvectors(base, irrep_set, ctx, residual_tol=residual_tol)
    # Cast once: ``int64 @ complex`` casts the whole matrix on every call.
    # One product per column keeps the bits of ``max_residual``.
    adjacency = lift.adjacency.astype(complex)
    max_residual = 0.0
    for block in bundle.blocks:
        for col in np.flatnonzero(block.selected):
            vector = block.pulled[:, col]
            eigenvalue = complex(block.eigenvalues[col % block.eigenvalues.size])
            residual = np.linalg.norm(
                adjacency @ vector - eigenvalue * vector
            ) / max(1.0, np.linalg.norm(vector))
            max_residual = float(np.maximum(max_residual, residual))

    passed = (
        spectral_distance <= match_tol
        and max_residual <= residual_tol
        and len(bundle.selected_basis) == bundle.kn
    )
    return OracleReport(
        passed=passed,
        spectral_distance=spectral_distance,
        max_residual=max_residual,
        kn=bundle.kn,
        selected_count=len(bundle.selected_basis),
    )
