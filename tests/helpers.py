"""Shared helpers for the test suite.

Multiset comparisons treat spectra as sorted tuples of complex numbers and
use greedy pairing, which is exact for the sorted-real case and adequate for
the small complex multisets produced by directed examples.
"""

import os
from pathlib import Path

import numpy as np

import liftspectra


def package_env() -> dict:
    """The environment of a child Python that imports this checkout's ``liftspectra``."""
    src = str(Path(liftspectra.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def complex_sort(values):
    """Sort complex values by (real, imag)."""
    arr = np.asarray(values, dtype=complex)
    order = np.lexsort((arr.imag, arr.real))
    return arr[order]


def multiset_distance(left, right):
    """Max pairwise gap between two equal-size spectra under best pairing.

    Real (or nearly real) multisets pair by sorted order, which is optimal.
    Genuinely complex multisets use an optimal assignment instead: sorted
    pairing can cross conjugate pairs whose real parts differ only by
    rounding noise.
    """
    a = np.asarray(left, dtype=complex).ravel()
    b = np.asarray(right, dtype=complex).ravel()
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    if max(np.max(np.abs(a.imag)), np.max(np.abs(b.imag))) <= 1e-8:
        sa = a[np.argsort(a.real, kind="stable")]
        sb = b[np.argsort(b.real, kind="stable")]
        return float(np.max(np.abs(sa - sb)))
    import scipy.optimize

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def multiset_contains(smaller, larger, tol):
    """Greedy check that every value in smaller appears in larger.

    Both inputs are multisets of reals (or complex with matching order);
    each element of the larger multiset is consumed at most once.
    """
    small = list(complex_sort(smaller))
    large = list(complex_sort(larger))
    j = 0
    for value in small:
        while j < len(large) and not np.isclose(large[j], value, atol=tol, rtol=0.0):
            j += 1
        if j >= len(large):
            return False
        j += 1
    return True


def reference_irrep_image(base, irrep):
    """``rho`` applied entry by entry in a triple loop: the bit-for-bit reference.

    Each ``d x d`` block starts at zero and adds ``c * rho(g)`` in the
    entry's coefficient order.
    """
    d = irrep.dim
    k = base.k
    out = np.zeros((d * k, d * k), dtype=complex)
    for u in range(k):
        for v in range(k):
            block = out[u * d : (u + 1) * d, v * d : (v + 1) * d]
            for g, c in base.entry(u, v).coefficients.items():
                block += c * irrep.matrices[g]
    return out


def reference_image_eigendata(base, idx, irrep):
    """Eigenvalues (ascending, complex) and eigenvectors of one irrep image, solved alone.

    The per-irrep image eigensolve both lift routes ran before they solved
    stacks per dimension: the bit-for-bit reference.  The image comes
    from the entrywise loop, the Hermitian test is the two-dimensional one,
    and the solve is ``eigh`` on the one matrix; the residual check is left
    out, since it changes no bit.
    """
    from liftspectra import NumericalError
    from liftspectra.spectral import HERMITIAN_TOL

    image = reference_irrep_image(base, irrep)
    skew = np.abs(image - image.conj().T).max(initial=0.0)
    if not skew <= HERMITIAN_TOL * max(1.0, np.abs(image).max(initial=0.0)):
        raise NumericalError(
            f"image eigensolve: irrep {idx}, image is not Hermitian; "
            "irreps must be unitary"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(image)
    return np.asarray(eigenvalues, dtype=complex), eigenvectors


def reference_cells(base):
    """A base matrix's table as ``{(u, v): {g: count}}``, cells and keys in table order."""
    cells = {}
    for u, v, g, c in zip(*(column.tolist() for column in base.voltage_table)):
        cells.setdefault((u, v), {})[g] = c
    return cells


def reference_arc_cells(graph):
    """A graph's arcs counted into Python-int cells, by ``(u, v)`` and then by first arc."""
    cells = {}
    for arc in graph.arcs:
        cell = cells.setdefault((arc.tail, arc.head), {})
        cell[arc.voltage] = cell.get(arc.voltage, 0) + 1
    return dict(sorted(cells.items()))


def reference_int_matmul(group, k, left, right):
    """The product of two cell dicts by multiplying Python-int coefficient dicts: the exact reference.

    Cell ``(u, w)`` adds the terms of ``left[u, v] * right[v, w]`` for ``v``
    in order, each in the two cells' key orders, so a key's place is its
    first appearance; cells without terms are left out.
    """
    table = group.mult_table
    out = {}
    for u in range(k):
        for w in range(k):
            cell = {}
            for v in range(k):
                for g, c in left.get((u, v), {}).items():
                    for h, d in right.get((v, w), {}).items():
                        x = int(table[g, h])
                        cell[x] = cell.get(x, 0) + c * d
            if cell:
                out[u, w] = cell
    return out


def reference_int_trace(k, cells):
    """The diagonal cells' counts added as Python ints in ``u`` order, each sum then ``complex``."""
    sums = {}
    for u in range(k):
        for g, c in cells.get((u, u), {}).items():
            sums[g] = sums.get(g, 0) + c
    return [(g, complex(c)) for g, c in sums.items()]


def ordered_cells(cells):
    """Cells with their keys as lists, so that comparing them compares the orders too."""
    return [(key, list(cell.items())) for key, cell in cells.items()]


def reference_base_entries(graph):
    """Base-matrix entries folded arc by arc as ``zero() + from_element``."""
    from liftspectra import GroupAlgebraElement

    k = graph.k
    grid = [[GroupAlgebraElement.zero(graph.group) for _ in range(k)] for _ in range(k)]
    for arc in graph.arcs:
        grid[arc.tail][arc.head] = grid[arc.tail][arc.head] + GroupAlgebraElement.from_element(
            graph.group, arc.voltage
        )
    return grid


def reference_pull_back(sums, eigenvectors, k):
    """The single ``tensordot`` pull-back: the bit-for-bit reference.

    ``sums`` is the ``n x d x d`` coset-sum array.  Returns the
    ``(k, n, d, dk)`` block in the transposed layout of the product.
    """
    d = sums.shape[1]
    u3 = eigenvectors.reshape(k, d, d * k)
    return np.tensordot(u3, sums, axes=([1], [2])).transpose(0, 2, 3, 1) + 0.0


def reference_column_norms(matrix):
    """Column norms from two ``einsum`` passes over the real and imaginary views."""
    re = matrix.real
    im = matrix.imag
    return np.sqrt(np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im))


def reference_bundle_columns(base, irrep_set, ctx):
    """The per-column loop that built ``lift_eigenvectors``' columns: the bit-for-bit reference.

    Repeats the per-irrep pull-back and row selection, skips the residual
    check, and returns ``(columns, selected_basis, kn)`` with one
    :class:`EigenvectorColumn` per pulled column, in irrep order, then row
    ``j``, then image eigenvector.
    """
    from liftspectra import EigenvectorColumn, NumericalError
    from liftspectra.irreps import subgroup_ranks
    from liftspectra.spectral import ZERO_TOL, _coset_sums, _select_rows

    ranks = subgroup_ranks(irrep_set, ctx)
    k = base.k
    kn = k * ctx.index_n
    blocks = []
    for idx, irrep in enumerate(irrep_set):
        sums = _coset_sums(irrep, ctx)
        projector = sums[0] / len(ctx.subgroup_elements)
        eigenvalues, eigenvectors = reference_image_eigendata(base, idx, irrep)
        pulled = reference_pull_back(sums, eigenvectors, k)
        picked = _select_rows(idx, sums, projector, ranks[idx])
        blocks.append((irrep.dim, eigenvalues, pulled.reshape(kn, -1), picked))

    peaks = [np.max(np.abs(b), axis=0, initial=0.0) for _, _, b, _ in blocks]
    global_peak = max((float(p.max(initial=0.0)) for p in peaks), default=0.0)

    columns = []
    selected = []
    for idx, ((d, eigenvalues, pulled, picked), peak) in enumerate(zip(blocks, peaks)):
        zero = peak <= ZERO_TOL * global_peak
        for col in range(pulled.shape[1]):
            j, c = divmod(col, d * k)
            if j in picked:
                if zero[col]:
                    raise NumericalError(
                        f"basis selection: irrep {idx}, picked row j={j} "
                        "pulls back to zero columns"
                    )
                selected.append(len(columns))
            columns.append(
                EigenvectorColumn(
                    vector=pulled[:, col],
                    eigenvalue=complex(eigenvalues[c]),
                    irrep=idx,
                    j=j,
                    w=c // d,
                    i=c % d,
                    zero=bool(zero[col]),
                    selected=j in picked,
                )
            )
    return tuple(columns), tuple(selected), kn


def reference_flags_and_selection(parts):
    """The peak-rule ``zero`` flags and the selected basis, as ``lift_eigenvectors`` built them.

    ``parts`` holds ``(dim, dk, pulled, picked)`` per irrep, ``pulled`` the
    ``(kn, dim * dk)`` block.  Returns ``(flags, selected_basis)``, or raises
    the ``basis selection:`` error of the first picked row with a zero column.
    """
    from liftspectra import NumericalError
    from liftspectra.spectral import ZERO_TOL

    peaks = [np.max(np.abs(pulled), axis=0, initial=0.0) for _, _, pulled, _ in parts]
    global_peak = max((float(peak.max(initial=0.0)) for peak in peaks), default=0.0)
    flags = []
    selected = []
    offset = 0
    for idx, ((dim, dk, pulled, picked), peak) in enumerate(zip(parts, peaks)):
        zero = peak <= ZERO_TOL * global_peak
        rows = np.zeros(dim, dtype=bool)
        rows[list(picked)] = True
        chosen = np.repeat(rows, dk)
        vanishing = np.flatnonzero(chosen & zero)
        if vanishing.size:
            j = int(vanishing[0]) // dk
            raise NumericalError(
                f"basis selection: irrep {idx}, picked row j={j} pulls back to zero columns"
            )
        selected.extend((offset + np.flatnonzero(chosen)).tolist())
        offset += pulled.shape[1]
        flags.append(zero)
    return flags, tuple(selected)


def reference_is_hermitian(matrix):
    """``is_hermitian`` with ``max|M|`` taken on every call: the reference."""
    from liftspectra.spectral import HERMITIAN_TOL

    skew = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(matrix).max(axis=(-2, -1), initial=0.0)
    flags = skew <= HERMITIAN_TOL * np.maximum(1.0, scale)
    return bool(flags) if flags.ndim == 0 else flags


def reference_bundle_json(columns, selected_basis, kn):
    """``EigenvectorBundle.to_json`` written column by column from tagged columns.

    Every number is a Python ``float``, as ``tolist()`` gives it.
    """
    return {
        "kn": kn,
        "selected": list(selected_basis),
        "columns": [
            {
                "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                "irrep": c.irrep,
                "j": c.j,
                "w": c.w,
                "i": c.i,
                "vector": [[x.real, x.imag] for x in c.vector.tolist()],
                "selected": c.selected,
                "zero": c.zero,
            }
            for c in columns
        ],
    }


def reference_merge(spectra, tags, match_tol):
    """The tuple merge ``lift_spectrum`` used before its array merge: the bit-for-bit reference.

    One ``(complex value, count, tag)`` tuple per eigenvalue, a stable sort
    on ``(real, imag)``, then a scan that anchors each entry at its first
    value and takes every later value within ``match_tol`` of that anchor.
    """
    from liftspectra import SpectrumEntry

    raw = []
    for values, tag in zip(spectra, tags):
        for value in np.asarray(values, dtype=complex):
            raw.append((complex(value), tag[2], tag))
    raw.sort(key=lambda item: (item[0].real, item[0].imag))
    entries = []
    pos = 0
    while pos < len(raw):
        anchor, count, tag = raw[pos]
        merged = {tag}
        end = pos + 1
        while end < len(raw) and abs(raw[end][0] - anchor) <= match_tol:
            count += raw[end][1]
            merged.add(raw[end][2])
            end += 1
        entries.append(
            SpectrumEntry(value=anchor, count=count, provenance=tuple(sorted(merged)))
        )
        pos = end
    return tuple(entries)


def reference_report_json(entries, total):
    """``SpectrumReport.to_json`` as it read a tuple of :class:`SpectrumEntry`."""
    return {
        "kn": total,
        "eigenvalues": [
            {
                "value": [e.value.real, e.value.imag],
                "count": e.count,
                "provenance": [
                    {"irrep": i, "dim": d, "rank": r} for i, d, r in e.provenance
                ],
            }
            for e in entries
        ],
    }


def reference_expand(entries):
    """``SpectrumReport.expand`` as it read a tuple of :class:`SpectrumEntry`."""
    values = np.array([e.value for e in entries], dtype=complex)
    counts = np.array([e.count for e in entries], dtype=np.intp)
    return np.repeat(values, counts)


def reference_eig_dense(matrix, hermitian_hint=False):
    """``eig_dense`` with its separate ``isfinite`` pass: the bit-for-bit reference.

    The finiteness test ran over every entry before the solve, and
    ``max|M|`` was taken after it, for the residual bound only.
    """
    from liftspectra import NumericalError
    from liftspectra.spectral import DEFAULT_RESIDUAL_TOL

    matrix = np.asarray(matrix)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("eig_dense needs a square matrix")
    if not np.isfinite(matrix).all():
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
    scale = np.abs(matrix).max(axis=(-2, -1), initial=0.0)
    failed = ~(residual <= DEFAULT_RESIDUAL_TOL * np.maximum(1.0, scale))
    if failed.any():
        raise NumericalError(
            f"eigensolve: residual {residual.flat[failed.argmax()]:.3e} exceeds tolerance"
        )
    return eigenvalues, eigenvectors


def reference_trace_rank(irrep, ctx, label):
    """Rank of the projector ``P = (1/|H|) sum_{h in H} rho(h)``, which is its trace.

    ``P`` is an orthogonal projector, so ``rank P = tr P = (1/|H|) sum_{h in H}
    chi(h)``, the multiplicity of the irrep in the coset module (Frobenius
    reciprocity).  A trace further than ``RANK_TRACE_TOL`` from an integer
    raises :class:`NumericalError`, since no unitary irrep gives one.
    """
    from liftspectra.errors import ConsistencyError, NumericalError
    from liftspectra.irreps import RANK_TRACE_TOL

    if irrep.group is not ctx.group:
        raise ConsistencyError("irrep and subgroup context belong to different groups")
    trace = complex(np.mean(irrep.character[ctx.sorted_members]))
    rank = round(trace.real)
    if abs(trace - rank) > RANK_TRACE_TOL:
        raise NumericalError(
            f"rank identity: {label}, tr P = {trace.real:.12g}{trace.imag:+.3g}j "
            f"is not within {RANK_TRACE_TOL:g} of an integer"
        )
    return rank


def reference_spectrum_entries(base, irrep_set, ctx, match_tol):
    """``lift_spectrum``'s entries as the per-irrep rank loop and the tuple merge gave them."""
    spectra = []
    tags = []
    for idx, irrep in enumerate(irrep_set):
        rank = reference_trace_rank(irrep, ctx, f"irrep {idx}")
        if rank:
            spectra.append(reference_image_eigendata(base, idx, irrep)[0])
            tags.append((idx, irrep.dim, rank))
    return reference_merge(spectra, tags, match_tol)


def entry_bits(entries):
    """Entries as comparable tuples that tell ``-0.0`` from ``0.0``."""
    return [
        (e.value.real.hex(), e.value.imag.hex(), e.count, e.provenance) for e in entries
    ]


# The per-element loops that computed the coset and class facts before the
# table expressions in ``liftspectra.permgroup``: the references they must
# agree with, kept verbatim apart from their names.


def reference_check_subgroup(group, members):
    from liftspectra import ConsistencyError

    if group.identity not in members:
        raise ConsistencyError("subgroup must contain the identity")
    for a in members:
        if group.inv(a) not in members:
            raise ConsistencyError("subgroup is not closed under inverses")
        for b in members:
            if group.mul(a, b) not in members:
                raise ConsistencyError("subgroup is not closed under products")


def reference_right_cosets(group, subgroup_elements):
    from types import SimpleNamespace

    from liftspectra import ConsistencyError

    members = frozenset(int(x) for x in subgroup_elements)
    reference_check_subgroup(group, members)

    n_elements = group.order
    coset_of = np.full(n_elements, -1, dtype=np.int64)
    cosets = []

    def _add(coset):
        label = len(cosets)
        cosets.append(coset)
        for x in coset:
            coset_of[x] = label
        return label

    _add(members)
    pos = 0
    while pos < len(cosets):
        current = cosets[pos]
        for g in group.generators:
            shifted = frozenset(group.mul(x, g) for x in current)
            probe = next(iter(shifted))
            if coset_of[probe] < 0:
                _add(shifted)
        pos += 1
    # Generators reach every coset when they generate the group; sweep any
    # stragglers in canonical element order so the labelling stays total.
    for x in range(n_elements):
        if coset_of[x] < 0:
            _add(frozenset(group.mul(h, x) for h in members))

    if sum(len(c) for c in cosets) != n_elements:
        raise ConsistencyError("cosets do not partition the group")
    representatives = tuple(min(c) for c in cosets)
    return SimpleNamespace(
        group=group,
        subgroup_elements=members,
        cosets=tuple(cosets),
        coset_of=coset_of,
        representatives=representatives,
    )


def reference_conjugacy_classes(group):
    from liftspectra import ConjugacyClass, ConsistencyError

    n = group.order
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        members = set()
        for a in range(n):
            y = group.mul(group.mul(group.inv(a), x), a)
            members.add(y)
        for y in members:
            seen[y] = True
        centralizer = sum(
            1 for a in range(n) if group.mul(a, x) == group.mul(x, a)
        )
        if len(members) * centralizer != n:
            raise ConsistencyError("class equation violated; group tables corrupt")
        classes.append(ConjugacyClass(representative=x, members=frozenset(members)))
    return classes


def reference_is_normal(ctx):
    group = ctx.group
    members = ctx.subgroup_elements
    for g in range(group.order):
        conjugated = {
            group.mul(group.mul(g, h), group.inv(g)) for h in members
        }
        if conjugated != members:
            return False
    return True


def reference_decompose_regular(group, classes, rng):
    """``irreps._decompose_regular`` with the whole-matrix average and the
    ``einsum`` invariance residual: the bit-for-bit reference, verbatim apart
    from its name and imports."""
    from liftspectra.errors import NumericalError
    from liftspectra.irreps import (
        CHARACTER_TOL,
        DEFAULT_VERIFY_TOL,
        _cluster_spans,
        _random_hermitian,
    )

    n = group.order
    table = group.mult_table
    seed_matrix = _random_hermitian(rng, n)
    averaged = np.zeros((n, n), dtype=complex)
    # Conjugating by the regular representation permutes rows and columns by
    # right multiplication, so the average is a gather, not a matrix product.
    for g in range(n):
        col = table[:, g]
        averaged += seed_matrix[np.ix_(col, col)]
    averaged /= n
    eigenvalues, eigenvectors = np.linalg.eigh(averaged)
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
        if abs(norm - 1) > CHARACTER_TOL:
            raise NumericalError(
                f"irrep split: reducible eigenvalue cluster {idx} ({hi - lo}-dimensional): "
                f"character norm {norm:.6f} departs from 1"
            )
        # An irrep of dimension d spans d clusters; build it from the first.
        if np.any(np.max(np.abs(kept - class_char), axis=1) <= CHARACTER_TOL):
            continue
        kept = np.vstack([kept, class_char])
        shifted = basis[table.T]
        sub = np.einsum("ai,gab->gib", basis.conj(), shifted)
        residual = np.max(np.abs(shifted - np.einsum("ab,gbj->gaj", basis, sub)))
        if residual > DEFAULT_VERIFY_TOL:
            raise NumericalError(
                f"irrep split: eigenvalue cluster {idx} is not an invariant subspace "
                f"(residual {residual:.3e})"
            )
        found.append(sub)
    return found


def reference_slice_residual(basis, part, shifted):
    """The exact residual of one 32-element slice of ``irreps._catalog``: the largest
    entry of ``basis @ part`` less the shifted ``(g, b, a)`` basis, read as
    ``(g, a, b)``."""
    lifted = basis @ part
    lifted -= shifted.transpose(0, 2, 1)
    return np.max(np.abs(lifted))


# The per-irrep generator walk that built the dihedral catalog before the
# stacked walk in ``liftspectra.irreps``: the bit-for-bit reference, kept
# verbatim apart from its names and imports.


def reference_bfs_parents(group):
    """BFS order over the group from the identity along right generator steps."""
    from liftspectra.errors import ConsistencyError

    order = [group.identity]
    parent = {group.identity: None}
    pos = 0
    while pos < len(order):
        x = order[pos]
        for slot, gen in enumerate(group.generators):
            y = group.mul(x, gen)
            if y not in parent:
                parent[y] = (x, slot)
                order.append(y)
        pos += 1
    if len(order) != group.order:
        raise ConsistencyError("stored generators do not generate the group")
    return order, parent


def reference_extend_from_generators(group, gen_images):
    """Extend generator images to the whole group along BFS words."""
    dim = gen_images[0].shape[0] if gen_images else 1
    mats = np.zeros((group.order, dim, dim), dtype=complex)
    mats[group.identity] = np.eye(dim)
    order, parent = reference_bfs_parents(group)
    for y in order[1:]:
        x, slot = parent[y]
        mats[y] = mats[x] @ gen_images[slot]
    return mats


def reference_builtin_dihedral(m):
    from liftspectra import IrrepSet, conjugacy_classes, generate_group
    from liftspectra.irreps import _dihedral_generators, _sort_irreps

    rotation, flip = _dihedral_generators(m)
    group = generate_group([rotation, flip])
    one = np.eye(1, dtype=complex)
    mats_list = []
    signs = [(1.0, 1.0), (1.0, -1.0)]
    if m % 2 == 0:
        signs += [(-1.0, 1.0), (-1.0, -1.0)]
    for sr, sf in signs:
        mats_list.append(reference_extend_from_generators(group, [sr * one, sf * one]))
    reflect = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    for j in range(1, (m + 1) // 2):
        theta = 2.0 * np.pi * j / m
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ],
            dtype=complex,
        )
        mats_list.append(reference_extend_from_generators(group, [rot, reflect]))
    classes = conjugacy_classes(group)
    return IrrepSet(group=group, irreps=_sort_irreps(group, mats_list, classes))


# ``build_lift`` with one ``np.add.at`` per arc, from before the lift was
# filled from ``voltage._lift_terms``: the bit-for-bit reference, kept
# verbatim apart from its name and imports.


def reference_build_lift(graph, ctx):
    from liftspectra import ConsistencyError, LiftGraph

    if graph.group is not ctx.group:
        raise ConsistencyError("graph and subgroup context belong to different groups")
    n = ctx.index_n
    k = graph.k
    adjacency = np.zeros((k * n, k * n), dtype=np.int64)
    coset_rows = np.arange(n)
    actions = ctx.coset_action
    for arc in graph.arcs:
        np.add.at(adjacency, (arc.tail * n + coset_rows, arc.head * n + actions[arc.voltage]), 1)
    labels = tuple(
        (label, coset) for label in graph.vertices for coset in range(n)
    )
    return LiftGraph(vertex_labels=labels, adjacency=adjacency)


# ``power_sums_to_roots`` with its final re-sort of the roots: the
# bit-for-bit reference, kept verbatim apart from its name and imports.


def reference_power_sums_to_roots(sums):
    from liftspectra import NumericalError, eig_dense
    from liftspectra.characters import MAX_NEWTON_DEGREE, ROUNDTRIP_TOL, _kahan_sum

    sums = [complex(s) for s in sums]
    degree = len(sums)
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    if degree > MAX_NEWTON_DEGREE:
        raise ValueError(
            f"degree {degree} exceeds {MAX_NEWTON_DEGREE}; use the blockwise "
            "spectral route for large blocks"
        )

    elementary = [1.0 + 0j]
    for i in range(1, degree + 1):
        terms = (
            ((-1) ** (j - 1)) * elementary[i - j] * sums[j - 1] for j in range(1, i + 1)
        )
        elementary.append(_kahan_sum(terms) / i)

    if degree == 1:
        roots = np.array([elementary[1]])
    else:
        # Monic coefficients: x^m - e1 x^(m-1) + e2 x^(m-2) - ...
        coeffs = np.array(
            [((-1) ** (degree - i)) * elementary[degree - i] for i in range(degree)]
        )
        companion = np.zeros((degree, degree), dtype=complex)
        companion[1:, :-1] = np.eye(degree - 1)
        companion[:, -1] = -coeffs
        roots, _ = eig_dense(companion)

    for ell in range(1, degree + 1):
        reproduced = _kahan_sum(r**ell for r in roots)
        if abs(reproduced - sums[ell - 1]) > ROUNDTRIP_TOL * max(
            1.0, abs(sums[ell - 1])
        ):
            raise NumericalError(
                f"power-sum roundtrip: failed at l={ell}: "
                f"{reproduced} vs {sums[ell - 1]}"
            )
    order = np.lexsort((roots.imag, roots.real))
    return np.asarray(roots)[order]


# ``verify_against_oracle`` with the int64 lift adjacency in each column's
# product: the bit-for-bit reference, kept verbatim apart from its name and
# imports.


def reference_verify_against_oracle(graph, irrep_set, ctx, match_tol, residual_tol):
    from liftspectra import (
        ConsistencyError,
        NumericalError,
        OracleReport,
        build_base_matrix,
        build_lift,
        lift_eigenvectors,
        lift_spectrum,
    )

    if graph.directed:
        raise ConsistencyError("oracle verification needs an undirected base")
    base = build_base_matrix(graph)
    lift = build_lift(graph, ctx)
    reference = np.linalg.eigvalsh(lift.adjacency.astype(float))

    report = lift_spectrum(base, irrep_set, ctx, match_tol=match_tol)
    values = report.expand()
    if np.max(np.abs(values.imag), initial=0.0) > match_tol:
        raise NumericalError("oracle check: undirected lift produced non-real eigenvalues")
    computed = np.sort(values.real)
    if computed.shape != reference.shape:
        raise NumericalError(
            f"oracle check: spectrum sizes differ: "
            f"{computed.shape[0]} vs {reference.shape[0]}"
        )
    spectral_distance = float(np.max(np.abs(computed - reference), initial=0.0))

    bundle = lift_eigenvectors(base, irrep_set, ctx, residual_tol=residual_tol)
    max_residual = 0.0
    for block in bundle.blocks:
        for col in np.flatnonzero(block.selected):
            vector = block.pulled[:, col]
            eigenvalue = complex(block.eigenvalues[col % block.eigenvalues.size])
            residual = np.linalg.norm(
                lift.adjacency @ vector - eigenvalue * vector
            ) / max(1.0, np.linalg.norm(vector))
            max_residual = max(max_residual, float(residual))

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
