"""Properties of the per-irrep eigenvector pull-back in ``lift_eigenvectors``.

Random undirected bases over S4, A5 and dihedral groups, lifted over random
cyclic and two-generator subgroups, are checked against the explicit lift:
exactly ``kn`` selected columns of full rank, each an eigenvector within the
residual tolerance, and ``zero`` flags on exactly the rows the subgroup
projector kills.
"""

import dataclasses
import functools
import gc
import importlib.util
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftspectra.spectral as spectral
from liftspectra import (
    BaseMatrix,
    Irrep,
    IrrepSet,
    NumericalError,
    VoltageGraph,
    build_base_matrix,
    build_lift,
    builtin_irreps,
    compute_irreps,
    generate_group,
    irrep_image,
    lift_eigenvectors,
    lift_spectrum,
    parse_permutation,
    right_cosets,
    stabilizer,
    subgroup_closure,
)
from liftspectra.voltage import VoltageTable

from helpers import (
    reference_bundle_columns,
    reference_bundle_json,
    reference_column_norms,
    reference_flags_and_selection,
)

TOL_RESIDUAL = 1e-8
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Both lift routes share the rank rule and the image eigensolve, so they
# refuse the same out-of-contract input with the same stage names.
routes = pytest.mark.parametrize(
    "route", [lift_spectrum, lift_eigenvectors], ids=lambda f: f.__name__
)

GENERATED = {
    "S4": (4, ("(1 2)", "(1 2 3 4)")),
    "A5": (5, ("(1 2 3)", "(1 2 3 4 5)")),
    "S5": (5, ("(1 2)", "(1 2 3 4 5)")),
}
DIHEDRAL = {"D5": 5, "D6": 6}
# (trivial, plane, sign), and S5's dimensions as 4, 4, 1, 6, 5, 1, 5.
UNSORTED = {"sym3 unsorted": ("sym3", (0, 2, 1)), "S5 shuffled": ("S5", (2, 3, 0, 6, 4, 1, 5))}


@functools.cache
def catalog(name: str) -> IrrepSet:
    if name == "sym3":
        return builtin_irreps("sym3")
    if name in DIHEDRAL:
        return builtin_irreps("dihedral", DIHEDRAL[name])
    if name == "C60":
        # Sixty one-dimensional irreps, built and solved as one stack.
        return builtin_irreps("cyclic", 60)
    if name in UNSORTED:
        # Irrep sets not sorted by dimension: only consecutive irreps of one
        # dimension share a stack.
        source, order = UNSORTED[name]
        irrep_set = catalog(source)
        return IrrepSet(group=irrep_set.group, irreps=tuple(irrep_set[i] for i in order))
    degree, gens = GENERATED[name]
    group = generate_group([parse_permutation(g, degree) for g in gens])
    return compute_irreps(group, seed=0)


def projector(irrep: Irrep, members) -> np.ndarray:
    return irrep.matrices[sorted(members)].mean(axis=0)


@st.composite
def lifts(draw, names=("A5", "D5", "D6", "S4"), max_k=3):
    """A catalog, a subgroup context and a random undirected base over it."""
    irrep_set = catalog(draw(st.sampled_from(names)))
    group = irrep_set.group
    element = st.integers(0, group.order - 1)
    members = subgroup_closure(group, draw(st.lists(element, min_size=1, max_size=2)))
    k = draw(st.integers(1, max_k))
    vertex = st.integers(0, k - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, element), max_size=2 * k))
    labelled = [(str(u), str(v), g) for u, v, g in edges]
    graph = VoltageGraph.build(group, [str(v) for v in range(k)], labelled)
    return irrep_set, right_cosets(group, members), graph


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lifts())
def test_selected_columns_form_a_checked_eigenbasis(lift):
    irrep_set, ctx, graph = lift
    bundle = lift_eigenvectors(build_base_matrix(graph), irrep_set, ctx, residual_tol=TOL_RESIDUAL)
    kn = graph.k * ctx.index_n
    assert bundle.kn == kn
    assert len(bundle.selected_basis) == kn

    chosen = [bundle.columns[c] for c in bundle.selected_basis]
    vectors = np.column_stack([c.vector for c in chosen])
    assert np.linalg.matrix_rank(vectors) == kn

    adjacency = build_lift(graph, ctx).adjacency.astype(float)
    values = np.array([c.eigenvalue for c in chosen])
    residuals = np.linalg.norm(adjacency @ vectors - vectors * values, axis=0)
    assert np.all(residuals <= TOL_RESIDUAL * np.maximum(1.0, np.linalg.norm(vectors, axis=0)))

    # Each irrep contributes rank * d * k columns.  The rank of its subgroup
    # projector is measured here by SVD (singular values are 0 or 1),
    # independently of the trace rank that the library selects by.
    members = ctx.subgroup_elements
    for idx, irrep in enumerate(irrep_set):
        count = sum(1 for c in chosen if c.irrep == idx)
        rank = np.linalg.matrix_rank(projector(irrep, members), tol=1e-9)
        assert count == rank * irrep.dim * graph.k

    killed = [np.max(np.abs(projector(r, members)), axis=1) <= 1e-9 for r in irrep_set]
    assert all(c.zero == killed[c.irrep][c.j] for c in bundle.columns)
    assert not any(c.zero for c in chosen)


def _typed_fields(column):
    """Every field of a column as ``(type, exact value)``; arrays by dtype, shape and bytes."""
    out = []
    for field in dataclasses.fields(column):
        value = getattr(column, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tobytes())
        elif isinstance(value, complex):
            value = np.array([value]).tobytes()
        out.append((field.name, type(value), value))
    return out


def _typed_json(value):
    """A JSON payload with every leaf as ``(type, exact value)`` and dict keys in order."""
    if isinstance(value, dict):
        return [(key, _typed_json(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_typed_json(item) for item in value]
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


def assert_pull_back_half_not_kept(source):
    """The pair's image source is kept with its ranks, but without an eigenvector half."""
    assert source.ranks is not None
    assert (source.coset_action, source.sums, source.picked) == (None, None, None)


def assert_bundle_matches_reference(irrep_set, ctx, graph):
    base = build_base_matrix(graph)
    bundle = lift_eigenvectors(base, irrep_set, ctx, residual_tol=TOL_RESIDUAL)
    columns, selected, kn = reference_bundle_columns(base, irrep_set, ctx)

    # Neither the query nor the JSON writer builds the per-column objects.
    payload = bundle.to_json()
    assert "columns" not in vars(bundle)
    reference = reference_bundle_json(columns, selected, kn)
    assert _typed_json(payload) == _typed_json(reference)
    assert json.dumps(payload, indent=2) == json.dumps(reference, indent=2)

    assert bundle.kn == kn
    assert bundle.selected_basis == selected
    assert all(type(c) is int for c in bundle.selected_basis)
    assert len(bundle.columns) == len(columns)
    for got, want in zip(bundle.columns, columns):
        assert type(got) is type(want)
        assert _typed_fields(got) == _typed_fields(want)
        assert np.shares_memory(got.vector, bundle.blocks[got.irrep].pulled)
    assert bundle.matrix().tobytes() == np.column_stack([c.vector for c in columns]).tobytes()
    return bundle


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lifts(names=("A5", "D6", "S4", "C60", *UNSORTED)))
def test_bundle_arrays_match_the_per_column_loop_bit_for_bit(lift):
    assert_bundle_matches_reference(*lift)


@pytest.mark.parametrize(
    "name, generators, k, edges",
    [
        # Edge-free base with k = 1; the sign irrep has rank 0 over <(1 2)>.
        ("S4", ["(1 2)"], 1, []),
        ("S4", ["(1 2 3)", "(1 2)"], 2, [(0, 0, "(1 2 3 4)"), (0, 1, "(2 4)")]),
        # Over a point stabilizer only the trivial and 4-dimensional irreps of
        # A5 have rank above 0.
        ("A5", ["(1 2 3)", "(2 3 4)"], 1, [(0, 0, "(1 2 3 4 5)")]),
        # Over a reflection, the 1-dimensional irreps that negate it have rank 0.
        ("D6", ["(2 6)(3 5)"], 2, [(0, 1, "(1 2 3 4 5 6)"), (1, 1, "(1 4)(2 3)(5 6)")]),
    ],
)
def test_bundle_edge_cases_match_the_per_column_loop(name, generators, k, edges):
    irrep_set = catalog(name)
    group = irrep_set.group

    def element(text):
        return group.index_of(parse_permutation(text, group.degree))

    ctx = right_cosets(group, subgroup_closure(group, [element(g) for g in generators]))
    labelled = [(str(u), str(v), element(g)) for u, v, g in edges]
    graph = VoltageGraph.build(group, [str(v) for v in range(k)], labelled)
    bundle = assert_bundle_matches_reference(irrep_set, ctx, graph)
    assert any(not block.picked for block in bundle.blocks)


@st.composite
def pull_back_lifts(draw):
    """S4, A5, D6, S5 or C60 over the trivial group, a point stabilizer or a random subgroup.

    The base has 1 to 6 vertices.
    """
    irrep_set, ctx, graph = draw(lifts(names=("S4", "A5", "D6", "S5", "C60"), max_k=6))
    group = irrep_set.group
    kind = draw(st.sampled_from(("trivial", "stabilizer", "random")))
    if kind == "trivial":
        ctx = right_cosets(group, frozenset({group.identity}))
    elif kind == "stabilizer":
        ctx = right_cosets(group, stabilizer(group, 1))
    return irrep_set, ctx, graph


def assert_blocks_match_reference(irrep_set, ctx, graph):
    base = build_base_matrix(graph)
    bundle = lift_eigenvectors(base, irrep_set, ctx, residual_tol=TOL_RESIDUAL)
    columns, selected, kn = reference_bundle_columns(base, irrep_set, ctx)
    assert bundle.selected_basis == selected
    offset = 0
    for block in bundle.blocks:
        width = block.pulled.shape[1]
        own = columns[offset : offset + width]
        offset += width
        assert block.pulled.shape == (kn, width)
        assert block.pulled.tobytes() == np.column_stack([c.vector for c in own]).tobytes()
        assert block.zero.tobytes() == np.array([c.zero for c in own]).tobytes()
        values = np.array([c.eigenvalue for c in own[: block.eigenvalues.size]])
        assert block.eigenvalues.tobytes() == values.tobytes()
        assert block.picked == tuple(sorted({c.j for c in own if c.selected}))
    assert offset == len(columns)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pull_back_lifts())
def test_blocks_match_the_tensordot_pull_back_byte_for_byte(lift):
    assert_blocks_match_reference(*lift)


def _perfbench(monkeypatch, name):
    """``perfbench/<name>.py``, loaded from the checkout without changing it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body
    # runs, and workloads.py imports its siblings by their plain names.
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_eigvecs_sweep_mix_matches_the_per_column_loop(monkeypatch):
    instances = _perfbench(monkeypatch, "instances")
    _perfbench(monkeypatch, "checks")
    composition = _perfbench(monkeypatch, "workloads").EigvecsSweep.composition
    seed = 11
    catalogs, contexts = instances.setup(composition, seed)
    pool = instances.make_pool(composition, catalogs, contexts, seed)
    assert pool
    for inst in pool:
        assert_blocks_match_reference(inst.irrep_set, inst.ctx, inst.graph)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(0, 800), st.integers(1, 240)),
    scale=st.sampled_from((0.0, 1e-200, 1e-8, 1.0, 1e8, 1e150)),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_norms_match_the_two_einsum_reference(shape, scale, seed):
    rng = np.random.default_rng(seed)
    matrix = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert spectral._column_norms(matrix).tobytes() == reference_column_norms(matrix).tobytes()


NON_FINITE = (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, -np.inf))


@st.composite
def planted_blocks(draw):
    """Blocks of planted columns around the ``ZERO_TOL`` band, and whether the rule must fall back.

    Each column is one spike (peak = norm), flat (peak = norm / sqrt(kn)) or
    Gaussian, scaled to a multiple of the largest norm ``top``: 0, at most
    ``ZERO_TOL / (4 sqrt(kn))`` (zero under the peak rule for any shape),
    or at least ``4 ZERO_TOL sqrt(kn)`` (nonzero for any shape), so the norm
    bound decides it.  A planted undecided column has a norm of
    ``ZERO_TOL * top * kn**t`` with ``|t| <= 0.4``, inside the band where
    only the peaks decide; a planted entry may be NaN or infinite.
    """
    kn = draw(st.integers(4, 200))
    widths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    top = draw(st.sampled_from((0.0, 1e-100, 1e-8, 1.0, 1e50, 1e150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_side = spectral.ZERO_TOL / (4 * math.sqrt(kn))
    nonzero_side = 4 * spectral.ZERO_TOL * math.sqrt(kn)
    ratio = st.one_of(
        st.just(0.0),
        st.sampled_from((1.0, 1e-3, 1e-10, 1e-100)).map(lambda f: zero_side * f),
        st.sampled_from((1.0, 1e2, 1e5, 1e8)).map(lambda f: min(1.0, nonzero_side * f)),
    )

    def gaussian():
        return rng.standard_normal(kn) + 1j * rng.standard_normal(kn)

    blocks = []
    for width in widths:
        block = np.zeros((kn, width), dtype=complex)
        for c in range(width):
            shape = draw(st.sampled_from(("spike", "flat", "gaussian")))
            if shape == "spike":
                block[rng.integers(kn), c] = np.exp(2j * np.pi * rng.random())
            elif shape == "flat":
                block[:, c] = np.exp(2j * np.pi * rng.random(kn))
            else:
                block[:, c] = gaussian()
            block[:, c] *= top * draw(ratio) / np.linalg.norm(block[:, c])
        blocks.append(block)
    columns = [(b, c) for b, width in enumerate(widths) for c in range(width)]
    b, c = columns[draw(st.integers(0, len(columns) - 1))]
    vector = gaussian()
    blocks[b][:, c] = vector * (top / np.linalg.norm(vector))
    undecided = top > 0 and len(columns) > 1 and draw(st.booleans())
    if undecided:
        others = [col for col in columns if col != (b, c)]
        ub, uc = others[draw(st.integers(0, len(others) - 1))]
        norm = spectral.ZERO_TOL * top * kn ** draw(st.floats(-0.4, 0.4))
        vector = gaussian()
        blocks[ub][:, uc] = vector * (norm / np.linalg.norm(vector))
    non_finite = draw(st.sampled_from(NON_FINITE)) if draw(st.integers(0, 3)) == 0 else None
    if non_finite is not None:
        nb, nc = columns[draw(st.integers(0, len(columns) - 1))]
        blocks[nb][rng.integers(kn), nc] = non_finite
    fallback = top == 0 or undecided or non_finite is not None
    return [np.ascontiguousarray(block) for block in blocks], kn, fallback


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planted_blocks())
def test_zero_flags_equal_the_peak_rule_and_fall_back_only_when_undecided(planted):
    blocks, kn, fallback = planted
    norms = [spectral._column_norms(block) for block in blocks]
    fallbacks = []
    original = spectral._peak_zero_flags
    spectral._peak_zero_flags = lambda blocks: fallbacks.append(1) or original(blocks)
    try:
        flags = spectral._zero_flags(blocks, norms, kn)
    finally:
        spectral._peak_zero_flags = original
    want, _ = reference_flags_and_selection([(1, b.shape[1], b, ()) for b in blocks])
    assert [(f.dtype, f.shape, f.tobytes()) for f in flags] == [
        (f.dtype, f.shape, f.tobytes()) for f in want
    ]
    assert len(fallbacks) == int(fallback)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lift=pull_back_lifts(), data=st.data())
def test_planted_blocks_keep_the_peak_rule_flags_selection_and_errors(lift, data):
    # A row's columns are scaled by one factor, which keeps a picked row's
    # residual within its bound.  Every unpicked row is scaled, and may get a
    # NaN or infinite entry, since no residual check reads it; so is one
    # picked row.  Factors near 1e-10 put columns near the ZERO_TOL
    # threshold, and a picked row scaled to (near) zero raises the basis
    # selection error.
    irrep_set, ctx, graph = lift
    base = build_base_matrix(graph)
    picked = spectral._image_source(irrep_set, ctx, pull_back=True).picked
    victim = data.draw(st.sampled_from([(idx, j) for idx, rows in enumerate(picked) for j in rows]))
    factors = st.sampled_from((1.0, 1e8, 1e-4, 1e-9, 1e-10, 1e-12, 1e-30, 0.0))
    planted = []
    original = spectral._pull_back

    def planting(sums, eigenvectors, k):
        out = original(sums, eigenvectors, k)
        idx = len(planted)
        for j in range(out.shape[2]):
            if j not in picked[idx] or (idx, j) == victim:
                out[:, :, j] *= data.draw(factors)
            if j not in picked[idx] and data.draw(st.integers(0, 7)) == 0:
                out[0, 0, j, 0] = data.draw(st.sampled_from(NON_FINITE))
        planted.append(out)
        return out

    spectral._pull_back = planting
    try:
        bundle = lift_eigenvectors(base, irrep_set, ctx, residual_tol=TOL_RESIDUAL)
        got = ([b.zero.tobytes() for b in bundle.blocks], bundle.selected_basis)
    except NumericalError as exc:
        got = str(exc)
    finally:
        spectral._pull_back = original
    kn = base.k * ctx.index_n
    parts = [
        (irrep.dim, irrep.dim * base.k, out.reshape(kn, -1), rows)
        for irrep, out, rows in zip(irrep_set, planted, picked)
    ]
    try:
        flags, selected = reference_flags_and_selection(parts)
        want = ([f.tobytes() for f in flags], selected)
    except NumericalError as exc:
        want = str(exc)
    assert got == want


def test_pull_back_writes_each_block_once(monkeypatch):
    """Each block is written C-contiguous and returned in place, with a bounded allocation peak.

    On the regular S5 lift at k = 6 one call's traced peak read 1.72 times
    the bundle's own bytes when the pull-back returned the transposed
    ``tensordot`` layout (copied by both later reshapes), and 1.42 times
    once each block was written in its final layout.
    """
    irrep_set = catalog("S5")
    group = irrep_set.group
    k = 6
    rng = np.random.default_rng(6)
    edges = [(v - 1, v) for v in range(1, k)] + [(0, 0), (2, 5), (1, 4), (3, 3)]
    labelled = [(str(u), str(v), int(rng.integers(group.order))) for u, v in edges]
    graph = VoltageGraph.build(group, [str(v) for v in range(k)], labelled)
    base = build_base_matrix(graph)
    ctx = right_cosets(group, frozenset({group.identity}))

    written = []
    original = spectral._pull_back

    def recording(sums, eigenvectors, k):
        out = original(sums, eigenvectors, k)
        written.append(out)
        return out

    monkeypatch.setattr(spectral, "_pull_back", recording)
    bundle = lift_eigenvectors(base, irrep_set, ctx)
    assert len(written) == len(bundle.blocks)
    for block, out in zip(bundle.blocks, written):
        assert out.flags.c_contiguous
        assert block.pulled.flags.c_contiguous
        assert np.shares_memory(block.pulled, out)
    monkeypatch.undo()

    # The plan is built by now, so the traced call makes only per-call arrays.
    tracemalloc.start()
    try:
        bundle = lift_eigenvectors(base, irrep_set, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(block.pulled.nbytes for block in bundle.blocks)
    assert own == (k * group.order) ** 2 * 16
    assert peak < 1.55 * own, peak / own


@routes
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(lift=lifts(), data=st.data())
def test_duplicated_irrep_breaks_the_rank_identity(route, lift, data):
    irrep_set, ctx, graph = lift
    members = ctx.subgroup_elements
    present = [r for r in irrep_set if np.max(np.abs(projector(r, members))) > 1e-9]
    extra = data.draw(st.sampled_from(present))
    doubled = IrrepSet(group=irrep_set.group, irreps=irrep_set.irreps + (extra,))
    with pytest.raises(NumericalError, match="^rank identity: dimension-weighted ranks"):
        route(build_base_matrix(graph), doubled, ctx)


def test_row_selection_skips_killed_rows(dumbbell_base, sym3, sym3_catalog, point_stabilizer_ctx):
    # Rotate the plane irrep so that the stabilizer's projector becomes
    # diag(0, 1): row 0 is killed and only row 1 may be selected.
    plane = sym3_catalog[2]
    _, basis = np.linalg.eigh(projector(plane, point_stabilizer_ctx.subgroup_elements))
    rotated = basis.conj().T @ plane.matrices @ basis
    irreps = IrrepSet(
        group=sym3,
        irreps=sym3_catalog.irreps[:2]
        + (Irrep(group=sym3, dim=2, matrices=rotated, character=plane.character),),
    )
    bundle = lift_eigenvectors(dumbbell_base, irreps, point_stabilizer_ctx)
    plane_columns = [c for c in bundle.columns if c.irrep == 2]
    assert all(c.zero == (c.j == 0) and c.selected == (c.j == 1) for c in plane_columns)
    assert len(bundle.selected_basis) == bundle.kn == 6


class TestErrorMessages:
    @routes
    def test_missing_irrep(self, route, dumbbell_base, sym3, sym3_catalog, point_stabilizer_ctx):
        partial = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2])
        with pytest.raises(NumericalError, match="^rank identity: .* sum to 1, expected 3"):
            route(dumbbell_base, partial, point_stabilizer_ctx)

    @routes
    def test_non_integer_trace(
        self, route, dumbbell_base, sym3, sym3_catalog, point_stabilizer_ctx
    ):
        plane = sym3_catalog[2]
        shrunk = Irrep(
            group=sym3, dim=2, matrices=0.5 * plane.matrices, character=0.5 * plane.character
        )
        irreps = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2] + (shrunk,))
        with pytest.raises(NumericalError, match=r"^rank identity: irrep 2, tr P = 0\.5"):
            route(dumbbell_base, irreps, point_stabilizer_ctx)

    @routes
    def test_non_unitary_images(
        self, route, dumbbell_base, sym3, sym3_catalog, point_stabilizer_ctx
    ):
        # An equivalent but non-unitary form of the plane irrep keeps every
        # trace, so the rank identity holds, but its images are not Hermitian.
        plane = sym3_catalog[2]
        s = np.array([[1.0, 2.0], [0.0, 1.0]])
        skewed = s @ plane.matrices @ np.linalg.inv(s)
        irreps = IrrepSet(
            group=sym3,
            irreps=sym3_catalog.irreps[:2]
            + (Irrep(group=sym3, dim=2, matrices=skewed, character=plane.character),),
        )
        with pytest.raises(
            NumericalError, match="^image eigensolve: irrep 2, image is not Hermitian"
        ):
            route(dumbbell_base, irreps, point_stabilizer_ctx)

    def test_non_integer_coefficient(self, sym3):
        # Every route reads the base matrix, so the refusal comes when it is made.
        half = VoltageTable(*(np.array([x]) for x in (0, 0, sym3.identity, 0.5 + 0j)))
        message = r"^base matrix: coefficient \(0\.5\+0j\) of element 0 is not an integer within 1e-09$"
        with pytest.raises(NumericalError, match=message):
            BaseMatrix(group=sym3, k=1, voltage_table=half, directed=False)

    def test_nan_coefficient(self, sym3):
        nan = VoltageTable(*(np.array([x]) for x in (0, 0, sym3.identity, complex(np.nan))))
        message = r"^base matrix: coefficient \(nan\+0j\) of element 0 is not an integer within 1e-09$"
        with pytest.raises(NumericalError, match=message):
            BaseMatrix(group=sym3, k=1, voltage_table=nan, directed=False)

    def test_picked_row_that_pulls_back_to_zero(
        self, monkeypatch, dumbbell_base, sym3, sym3_catalog
    ):
        # Over the stabilizer of 1 every coset sum of the sign irrep is zero,
        # so a row picked there pulls back to zero columns.
        select_rows = spectral._select_rows

        def pick_a_killed_row(idx, sums, projector, rank):
            return [0] if idx == 1 else select_rows(idx, sums, projector, rank)

        monkeypatch.setattr(spectral, "_select_rows", pick_a_killed_row)
        # A fresh context, so that no cached source bypasses the patched selection.
        ctx = right_cosets(sym3, stabilizer(sym3, 1))
        message = r"^basis selection: irrep 1, picked row j=0 pulls back to zero columns$"
        with pytest.raises(NumericalError, match=message):
            lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)

    def test_non_finite_coset_sums_of_a_ranked_irrep(self, dumbbell_base, sym3, sym3_catalog):
        # All-NaN plane matrices with the true character keep rank 1 over
        # Stab(1), so rows would be picked from a NaN projector.
        plane = sym3_catalog[2]
        poisoned = Irrep(
            group=sym3,
            dim=2,
            matrices=np.full_like(plane.matrices, np.nan),
            character=plane.character,
        )
        irreps = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2] + (poisoned,))
        ctx = right_cosets(sym3, stabilizer(sym3, 1))
        message = r"^basis selection: irrep 2, coset sums are not finite$"
        for _ in range(2):
            with pytest.raises(NumericalError, match=message):
                lift_eigenvectors(dumbbell_base, irreps, ctx)
            assert_pull_back_half_not_kept(irreps.image_sources[ctx])

    def test_non_finite_coset_sums_of_a_killed_irrep(self, dumbbell_base, sym3, sym3_catalog):
        # The sign irrep has rank 0 over Stab(1) and no dumbbell arc carries
        # (1 3), so a NaN there leaves the spectrum right but would pull back
        # to NaN columns flagged as nonzero.
        sign = sym3_catalog[1]
        matrices = sign.matrices.copy()
        matrices[sym3.index_of(parse_permutation("(1 3)", 3))] = np.nan
        poisoned = Irrep(group=sym3, dim=1, matrices=matrices, character=sign.character)
        irreps = IrrepSet(group=sym3, irreps=(sym3_catalog[0], poisoned, sym3_catalog[2]))
        ctx = right_cosets(sym3, stabilizer(sym3, 1))
        got = lift_spectrum(dumbbell_base, irreps, ctx)
        want = lift_spectrum(dumbbell_base, sym3_catalog, ctx)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        message = r"^basis selection: irrep 1, coset sums are not finite$"
        for _ in range(2):
            with pytest.raises(NumericalError, match=message):
                lift_eigenvectors(dumbbell_base, irreps, ctx)
            assert_pull_back_half_not_kept(irreps.image_sources[ctx])
        # The spectrum route still answers from the same source.
        assert json.dumps(lift_spectrum(dumbbell_base, irreps, ctx).to_json()) == json.dumps(
            want.to_json()
        )

    def test_residual_bound(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        message = r"^residual: irrep \d+, column j=\d+ w=\d+ i=\d+"
        with pytest.raises(NumericalError, match=message):
            lift_eigenvectors(
                dumbbell_base, sym3_catalog, point_stabilizer_ctx, residual_tol=1e-300
            )


def _loop_graph(sym3):
    """Vertex ``a`` with a ``(2 3)`` loop and an isolated vertex ``b``.

    Every image is block diagonal with an exactly zero block for ``b``, so
    some image eigenvalues are exactly 0 while ``a``'s lift rows have arcs.
    """
    t = sym3.index_of(parse_permutation("(2 3)", 3))
    return VoltageGraph.build(sym3, ["a", "b"], [("a", "a", t)])


def _corrupt_one_column(monkeypatch, irrep, j, c, delta=1e-6):
    """Make ``_pull_back`` add ``delta`` to row 0 of column ``(j, c)`` of one irrep's block.

    Returns the list that records one entry per ``_pull_back`` call.
    """
    original = spectral._pull_back
    calls = []

    def corrupted(sums, eigenvectors, k):
        out = original(sums, eigenvectors, k)
        if len(calls) == irrep:
            out[0, 0, j, c] += delta
        calls.append(irrep)
        return out

    monkeypatch.setattr(spectral, "_pull_back", corrupted)
    return calls


@pytest.mark.parametrize(
    "graph, context, irrep, j, c",
    [
        ("dumbbell", "trivial", 2, 1, 3),
        ("dumbbell", "stabilizer", 2, 1, 2),
        # Column c = 0 of the trivial irrep has eigenvalue exactly 0, so the
        # check must read the column itself, not only lambda times it.
        ("loop", "trivial", 0, 0, 0),
    ],
)
def test_residual_check_catches_a_corrupted_column(
    monkeypatch, dumbbell, sym3, sym3_catalog, graph, context, irrep, j, c
):
    graph = dumbbell if graph == "dumbbell" else _loop_graph(sym3)
    members = frozenset({sym3.identity}) if context == "trivial" else stabilizer(sym3, 1)
    ctx = right_cosets(sym3, members)
    base = build_base_matrix(graph)
    block = lift_eigenvectors(base, sym3_catalog, ctx).blocks[irrep]
    assert j in block.picked
    if graph is not dumbbell:
        assert block.eigenvalues[c] == 0.0

    _corrupt_one_column(monkeypatch, irrep, j, c)
    d = block.dim
    message = rf"^residual: irrep {irrep}, column j={j} w={c // d} i={c % d} fails"
    with pytest.raises(NumericalError, match=message):
        lift_eigenvectors(base, sym3_catalog, ctx)


def test_residual_check_fails_closed_on_nan(monkeypatch, dumbbell, sym3, sym3_catalog):
    # A NaN residual is not within any bound, so the column fails.
    ctx = right_cosets(sym3, frozenset({sym3.identity}))
    _corrupt_one_column(monkeypatch, 2, 1, 3, delta=np.nan)
    message = r"^residual: irrep 2, column j=1 w=1 i=1 fails .* bound \(nan\)$"
    with pytest.raises(NumericalError, match=message):
        lift_eigenvectors(build_base_matrix(dumbbell), sym3_catalog, ctx)


def test_a_slice_with_a_non_hermitian_image_is_refused_whole(monkeypatch):
    # S4's irreps have dimensions (1, 1, 2, 3, 3), so irreps 3 and 4 share a
    # slice.  Irrep 4 is replaced by s M s^-1 with s = I + 2 E01: the same
    # character, so the rank identity holds, but images that are not
    # Hermitian.  The slice is refused before either irrep is solved or
    # pulled back, so a residual fault planted in irrep 3 is never reached.
    computed = catalog("S4")
    group = computed.group
    assert [r.dim for r in computed] == [1, 1, 2, 3, 3]
    s = np.eye(3)
    s[0, 1] = 2.0
    skewed = s @ computed[4].matrices @ np.linalg.inv(s)
    assert np.allclose(np.trace(skewed, axis1=1, axis2=2), computed[4].character)
    irrep_set = IrrepSet(
        group=group,
        irreps=computed.irreps[:4]
        + (Irrep(group=group, dim=3, matrices=skewed, character=computed[4].character),),
    )
    elements = [group.index_of(parse_permutation(g, 4)) for g in ("(1 2)", "(1 2 3 4)")]
    graph = VoltageGraph.build(
        group, ["u", "v"], [("u", "u", elements[0]), ("u", "v", 0), ("v", "v", elements[1])]
    )
    base = build_base_matrix(graph)
    ctx = right_cosets(group, frozenset({group.identity}))
    message = "^image eigensolve: irrep 4, image is not Hermitian; irreps must be unitary$"
    for route in (lift_spectrum, lift_eigenvectors):
        with pytest.raises(NumericalError, match=message):
            route(base, irrep_set, ctx)
    calls = _corrupt_one_column(monkeypatch, 3, 0, 0)
    with pytest.raises(NumericalError, match=message):
        lift_eigenvectors(base, irrep_set, ctx)
    assert len(calls) == 3


def test_lowest_failing_irrep_wins_over_a_later_non_hermitian_image(
    monkeypatch, dumbbell, sym3, sym3_catalog
):
    # The plane irrep (index 2) is out of contract, and irrep 0 fails its
    # residual check; as when each image was solved in turn, irrep 0's error
    # is raised, before the Hermitian test of irrep 2 is acted on.
    plane = sym3_catalog[2]
    s = np.array([[1.0, 2.0], [0.0, 1.0]])
    skewed = Irrep(
        group=sym3,
        dim=2,
        matrices=s @ plane.matrices @ np.linalg.inv(s),
        character=plane.character,
    )
    irreps = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2] + (skewed,))
    ctx = right_cosets(sym3, frozenset({sym3.identity}))
    base = build_base_matrix(dumbbell)
    with pytest.raises(NumericalError, match="^image eigensolve: irrep 2, image is not Hermitian"):
        lift_eigenvectors(base, irreps, ctx)
    _corrupt_one_column(monkeypatch, 0, 0, 0)
    with pytest.raises(NumericalError, match=r"^residual: irrep 0, column j=0 w=0 i=0 fails"):
        lift_eigenvectors(base, irreps, ctx)


def _fail_eigensolve_of(monkeypatch, target):
    """Make ``eig_dense`` raise on any call whose matrix, or one in its stack, equals ``target``."""
    original = spectral.eig_dense

    def failing(matrix, hermitian_hint=False):
        out = original(matrix, hermitian_hint)
        if any(np.array_equal(m, target) for m in matrix.reshape(-1, *target.shape)):
            raise NumericalError("eigensolve: residual 1.000e+00 exceeds tolerance")
        return out

    monkeypatch.setattr(spectral, "eig_dense", failing)


@pytest.mark.parametrize("route", [lift_spectrum, lift_eigenvectors])
def test_lowest_failing_image_wins_across_stacks(monkeypatch, route, dumbbell, sym3, sym3_catalog):
    # Irreps 0 and 2 (one-dimensional) are not consecutive, so each of the
    # three images is a slice of its own, solved in irrep order.  Irrep 2's
    # eigensolve fails, and so does irrep 1's Hermitian test once irrep 1 is
    # skewed: as when each image was solved in turn, the lower irrep's error
    # is raised.
    trivial, sign, plane = sym3_catalog
    s = np.array([[1.0, 2.0], [0.0, 1.0]])
    skewed = Irrep(
        group=sym3,
        dim=2,
        matrices=s @ plane.matrices @ np.linalg.inv(s),
        character=plane.character,
    )
    ctx = right_cosets(sym3, frozenset({sym3.identity}))
    base = build_base_matrix(dumbbell)
    target = irrep_image(base, sign).matrix
    assert not np.array_equal(target, irrep_image(base, trivial).matrix)
    _fail_eigensolve_of(monkeypatch, target)
    eigensolve = r"^eigensolve: residual 1\.000e\+00 exceeds tolerance$"
    with pytest.raises(NumericalError, match=eigensolve):
        route(base, IrrepSet(group=sym3, irreps=(trivial, plane, sign)), ctx)
    with pytest.raises(NumericalError, match="^image eigensolve: irrep 1, image is not Hermitian"):
        route(base, IrrepSet(group=sym3, irreps=(trivial, skewed, sign)), ctx)
    if route is lift_eigenvectors:
        # A residual failure of irrep 0 comes before irrep 2's eigensolve.
        _corrupt_one_column(monkeypatch, 0, 0, 0)
        with pytest.raises(NumericalError, match=r"^residual: irrep 0, column j=0 w=0 i=0 fails"):
            route(base, IrrepSet(group=sym3, irreps=(trivial, plane, sign)), ctx)


def test_a_dimension_solved_in_several_slices_keeps_its_bits(monkeypatch):
    # Sixty one-dimensional images of a 5-vertex base, 3 to a slice.
    irrep_set = catalog("C60")
    group = irrep_set.group
    edges = [(str(v), str((v + 1) % 5), 7 * v + 1) for v in range(5)] + [("0", "0", 11)]
    graph = VoltageGraph.build(group, [str(v) for v in range(5)], edges)
    ctx = right_cosets(group, frozenset({group.identity}))
    original = spectral.irrep_image
    calls = []

    def recording(base, irreps):
        calls.append(len(irreps))
        return original(base, irreps)

    monkeypatch.setattr(spectral, "irrep_image", recording)
    monkeypatch.setattr(spectral, "IMAGE_STACK_ENTRIES", 3 * 5 * 5 + 1)
    assert_bundle_matches_reference(irrep_set, ctx, graph)
    assert calls == [3] * 20


def test_interleaved_calls_reuse_plans_and_match_the_reference(dumbbell, sym3, sym3_catalog):
    # A second irrep set of the same group, in another basis, so that a source
    # filed under the wrong irrep set or context gives wrong columns.
    computed = compute_irreps(sym3, seed=0)
    assert not np.allclose(computed[2].matrices, sym3_catalog[2].matrices)
    contexts = [right_cosets(sym3, stabilizer(sym3, 1)), right_cosets(sym3, frozenset({0}))]
    graphs = [dumbbell, _loop_graph(sym3)]
    sources = {}
    for graph in graphs * 2:
        for ctx in contexts:
            for irrep_set in (sym3_catalog, computed):
                assert_bundle_matches_reference(irrep_set, ctx, graph)
                source = irrep_set.image_sources[ctx]
                assert sources.setdefault((id(irrep_set), id(ctx)), source) is source
                assert not any(sums.flags.writeable for sums in source.sums)
    assert len({id(source) for source in sources.values()}) == 4


def test_failed_basis_selection_raises_on_every_call(
    monkeypatch, dumbbell_base, sym3, sym3_catalog
):
    ctx = right_cosets(sym3, stabilizer(sym3, 1))
    # No singular value ratio passes a full-rank tolerance of 1.
    monkeypatch.setattr(spectral, "FULL_RANK_TOL", 1.0)
    message = r"^basis selection: irrep 0, coset sums of rows \[0\] do not reach rank 1"
    for _ in range(3):
        with pytest.raises(NumericalError, match=message):
            lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)
        assert_pull_back_half_not_kept(sym3_catalog.image_sources[ctx])
    source = sym3_catalog.image_sources[ctx]
    monkeypatch.undo()
    lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)
    assert sym3_catalog.image_sources[ctx] is source
    assert [len(rows) for rows in source.picked] == list(source.ranks) == [1, 0, 1]


def test_plan_goes_with_its_context(dumbbell_base, sym3, sym3_catalog):
    sources = sym3_catalog.image_sources
    ctx = right_cosets(sym3, stabilizer(sym3, 1))
    before = len(sources)
    lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)
    assert len(sources) == before + 1
    source = weakref.ref(sources[ctx])
    del ctx
    gc.collect()
    assert source() is None
    assert len(sources) == before
