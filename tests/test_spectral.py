import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftspectra import spectral
from liftspectra import (
    ConsistencyError,
    Irrep,
    IrrepSet,
    NumericalError,
    SpectrumEntry,
    SpectrumReport,
    VoltageGraph,
    build_base_matrix,
    build_lift,
    builtin_irreps,
    compute_irreps,
    eig_dense,
    generate_group,
    irrep_image,
    lift_eigenvectors,
    lift_spectrum,
    parse_permutation,
    right_cosets,
    subgroup_closure,
    verify_against_oracle,
)

from conftest import DUMBBELL_REGULAR, DUMBBELL_RELATIVE, SQRT3, SQRT7
from helpers import (
    entry_bits,
    multiset_distance,
    reference_base_entries,
    reference_eig_dense,
    reference_expand,
    reference_irrep_image,
    reference_is_hermitian,
    reference_merge,
    reference_report_json,
    reference_spectrum_entries,
    reference_verify_against_oracle,
)

ROOT3 = np.sqrt(3.0)


class TestIrrepImage:
    def test_dumbbell_trivial_image(self, dumbbell_base, sym3_catalog):
        image = irrep_image(dumbbell_base, sym3_catalog[0]).matrix
        assert np.max(np.abs(image - np.array([[2.0, 1.0], [1.0, 2.0]]))) < 1e-12

    def test_dumbbell_sign_image(self, dumbbell_base, sym3_catalog):
        image = irrep_image(dumbbell_base, sym3_catalog[1]).matrix
        assert np.max(np.abs(image - np.array([[-2.0, 1.0], [1.0, -2.0]]))) < 1e-12

    def test_dumbbell_plane_image(self, dumbbell_base, sym3_catalog):
        image = irrep_image(dumbbell_base, sym3_catalog[2]).matrix
        expected = np.array(
            [
                [-1.0, -ROOT3, 1.0, 0.0],
                [-ROOT3, 1.0, 0.0, 1.0],
                [1.0, 0.0, -1.0, ROOT3],
                [0.0, 1.0, ROOT3, 1.0],
            ]
        )
        assert np.max(np.abs(image - expected)) < 1e-12

    def test_block_layout(self, sym3, sym3_catalog):
        # Entry (u, v) of the base matrix lands in block rows u*d..(u+1)*d.
        g = sym3.index_of(parse_permutation("(1 2 3)", 3))
        graph = VoltageGraph.build(sym3, ["a", "b"], [("a", "b", g)], directed=True)
        base = build_base_matrix(graph)
        plane = sym3_catalog[2]
        image = irrep_image(base, plane).matrix
        assert image.shape == (4, 4)
        assert np.allclose(image[0:2, 0:2], 0.0)
        assert np.allclose(image[0:2, 2:4], plane.matrices[g])
        assert np.allclose(image[2:4, :], 0.0)

    def test_undirected_images_hermitian(self, sym3, sym3_catalog):
        rng = np.random.default_rng(31)
        for _ in range(10):
            edges = []
            for pair in (("a", "a"), ("a", "b"), ("b", "b")):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((*pair, int(rng.integers(sym3.order))))
            base = build_base_matrix(VoltageGraph.build(sym3, ["a", "b"], edges))
            for irrep in sym3_catalog:
                image = irrep_image(base, irrep).matrix
                assert np.max(np.abs(image - image.conj().T)) < 1e-12

    def test_group_mismatch(self, dumbbell_base):
        other = builtin_irreps("cyclic", 2)
        with pytest.raises(ConsistencyError):
            irrep_image(dumbbell_base, other[0])

    def test_image_wider_than_the_cap_is_refused_before_it_is_built(self, sym3, sym3_catalog):
        # 2 * 2049 = 4098 columns: 256 MiB of complex entries, were it built.
        k = 2049
        edges = [(str(i), str((i + 1) % k), sym3.identity) for i in range(k)]
        base = build_base_matrix(VoltageGraph.build(sym3, [str(i) for i in range(k)], edges))
        tracemalloc.start()
        try:
            with pytest.raises(ConsistencyError) as caught:
                irrep_image(base, [sym3_catalog[2], sym3_catalog[2]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            "irrep image of a 2-dimensional irrep on k = 2049 base vertices is "
            "d*k = 4098 wide, above MAX_IMAGE_WIDTH = 4096"
        )
        assert peak < 1 << 20

    def test_image_width_cap_is_inclusive(self, dumbbell_base, sym3_catalog, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_IMAGE_WIDTH", 4)
        assert irrep_image(dumbbell_base, sym3_catalog[2]).matrix.shape == (4, 4)
        monkeypatch.setattr(spectral, "MAX_IMAGE_WIDTH", 3)
        with pytest.raises(ConsistencyError, match="d\\*k = 4 wide, above MAX_IMAGE_WIDTH = 3"):
            irrep_image(dumbbell_base, sym3_catalog[2])
        with pytest.raises(ConsistencyError, match="MAX_IMAGE_WIDTH"):
            lift_spectrum(dumbbell_base, sym3_catalog, right_cosets(sym3_catalog.group, {0}))

    @pytest.mark.parametrize("route", [lift_spectrum, lift_eigenvectors])
    def test_lift_routes_refuse_a_wide_image_before_any_eigensolve(
        self, sym3, sym3_catalog, trivial_ctx, route, monkeypatch
    ):
        # The two 1-dimensional images (2049 wide) come first in irrep order;
        # the plane's (4098 wide) is refused before either is solved.
        k = 2049
        edges = [(str(i), str((i + 1) % k), sym3.identity) for i in range(k)]
        base = build_base_matrix(VoltageGraph.build(sym3, [str(i) for i in range(k)], edges))
        solves = []
        monkeypatch.setattr(spectral, "eig_dense", lambda *args, **kw: solves.append(args))
        with pytest.raises(ConsistencyError) as caught:
            route(base, sym3_catalog, trivial_ctx)
        assert str(caught.value) == (
            "irrep image of a 2-dimensional irrep on k = 2049 base vertices is "
            "d*k = 4098 wide, above MAX_IMAGE_WIDTH = 4096"
        )
        assert solves == []

    def test_only_the_images_a_route_solves_are_held_to_the_cap(
        self, dumbbell_base, sym3_catalog, full_ctx, monkeypatch
    ):
        # Over the full group only the trivial irrep has nonzero rank, so the
        # spectrum never images the plane; the eigenvector route images all.
        monkeypatch.setattr(spectral, "MAX_IMAGE_WIDTH", 3)
        assert lift_spectrum(dumbbell_base, sym3_catalog, full_ctx).total == 2
        original = spectral.eig_dense
        solves = []

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "eig_dense", counting)
        with pytest.raises(ConsistencyError, match="d\\*k = 4 wide, above MAX_IMAGE_WIDTH = 3"):
            lift_eigenvectors(dumbbell_base, sym3_catalog, full_ctx)
        assert solves == []


# (trivial, plane, sign), and S5's dimensions as 4, 4, 1, 6, 5, 1, 5.
UNSORTED = {"sym3 unsorted": ("sym3", (0, 2, 1)), "S5 shuffled": ("S5", (2, 3, 0, 6, 4, 1, 5))}


@functools.cache
def _catalog(name: str) -> IrrepSet:
    if name == "sym3":
        return builtin_irreps("sym3")
    if name == "D6":
        return builtin_irreps("dihedral", 6)
    if name == "C60":
        # Sixty one-dimensional irreps: one stack of sixty images.
        return builtin_irreps("cyclic", 60)
    if name in UNSORTED:
        # Irrep sets not sorted by dimension: only consecutive irreps of one
        # dimension share a stack.
        source, order = UNSORTED[name]
        irrep_set = _catalog(source)
        return IrrepSet(group=irrep_set.group, irreps=tuple(irrep_set[i] for i in order))
    degree, gens = {
        "S4": (4, ("(1 2)", "(1 2 3 4)")),
        "A5": (5, ("(1 2 3)", "(1 2 3 4 5)")),
        "S5": (5, ("(1 2)", "(1 2 3 4 5)")),
        "D6 computed": (6, ("(1 2 3 4 5 6)", "(2 6)(3 5)")),
    }[name]
    return compute_irreps(generate_group([parse_permutation(g, degree) for g in gens]), seed=0)


def _by_dimension(irreps):
    """Irrep indices grouped by dimension, in index order within each group."""
    groups = {}
    for idx, irrep in enumerate(irreps):
        groups.setdefault(irrep.dim, []).append(idx)
    return groups


@st.composite
def _base_specs(draw):
    """``(catalog, k, directed, edges)``; loops and parallel edges are drawn often."""
    name = draw(st.sampled_from(["S4", "A5", "D6", "C60"]))
    k = draw(st.integers(1, 4))
    vertex = st.integers(0, k - 1)
    element = st.integers(0, _catalog(name).group.order - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, element), max_size=3 * k))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    return name, k, draw(st.booleans()), edges


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_base_specs())
@example(("D6", 3, False, []))
@example(("S4", 2, True, [(0, 0, 5), (0, 0, 5), (0, 1, 7), (0, 1, 3)]))
@example(("A5", 2, False, [(1, 1, 0), (0, 1, 11), (0, 1, 11)]))
def test_irrep_images_match_the_entrywise_loop_bit_for_bit(spec):
    name, k, directed, edges = spec
    irrep_set = _catalog(name)
    labelled = [(str(u), str(v), g) for u, v, g in edges]
    graph = VoltageGraph.build(irrep_set.group, [str(v) for v in range(k)], labelled, directed)
    base = build_base_matrix(graph)
    for row, expected_row in zip(base.entries, reference_base_entries(graph)):
        for entry, expected in zip(row, expected_row):
            got = list(entry.coefficients.items())
            assert got == list(expected.coefficients.items())
            assert all(type(g) is int and type(c) is complex for g, c in got)
    # The square has coefficients above one and longer entries.
    for matrix in (base, base @ base):
        references = [reference_irrep_image(matrix, irrep) for irrep in irrep_set]
        for irrep, reference in zip(irrep_set, references):
            assert irrep_image(matrix, irrep).matrix.tobytes() == reference.tobytes()
        # Each stack of one dimension holds every image with its own bits.
        for members in _by_dimension(irrep_set).values():
            stack = irrep_image(matrix, [irrep_set[idx] for idx in members]).matrix
            assert stack.shape == (len(members), *references[members[0]].shape)
            for image, idx in zip(stack, members):
                assert image.tobytes() == references[idx].tobytes()


def test_irrep_image_refuses_mixed_and_empty_stacks(dumbbell_base, sym3_catalog):
    with pytest.raises(ValueError, match="^irrep_image stacks irreps of one dimension only$"):
        irrep_image(dumbbell_base, [sym3_catalog[0], sym3_catalog[2]])
    with pytest.raises(ValueError, match="^irrep_image needs at least one irrep$"):
        irrep_image(dumbbell_base, [])
    other = builtin_irreps("cyclic", 2)
    with pytest.raises(ConsistencyError):
        irrep_image(dumbbell_base, [sym3_catalog[0], other[0]])


def test_irrep_image_of_a_real_irrep_is_complex(dumbbell_base, sym3, sym3_catalog, trivial_ctx):
    # An irrep may hold real matrices; its image is complex all the same.
    real = IrrepSet(
        group=sym3,
        irreps=tuple(
            Irrep(group=sym3, dim=r.dim, matrices=r.matrices.real.copy(), character=r.character)
            for r in sym3_catalog
        ),
    )
    sign = real[1]
    assert sign.matrices.dtype == np.float64
    expected = reference_irrep_image(dumbbell_base, sign)
    assert irrep_image(dumbbell_base, sign).matrix.tobytes() == expected.tobytes()
    assert irrep_image(dumbbell_base, [sign, real[0]]).matrix[0].tobytes() == expected.tobytes()
    report = lift_spectrum(dumbbell_base, real, trivial_ctx)
    expected = reference_spectrum_entries(dumbbell_base, real, trivial_ctx, TOL)
    assert entry_bits(report.entries) == entry_bits(expected)


class TestEigDense:
    def test_hermitian_path(self):
        values, vectors = eig_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), hermitian_hint=True)
        assert np.allclose(values, [1.0, 3.0])
        residual = np.array([[2.0, 1.0], [1.0, 2.0]]) @ vectors - vectors @ np.diag(values)
        assert np.max(np.abs(residual)) < 1e-12

    def test_general_path_sorted(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        values, _ = eig_dense(m)
        assert np.allclose(values, [-1j, 1j])

    def test_zero_matrix(self):
        values, vectors = eig_dense(np.zeros((3, 3)), hermitian_hint=True)
        assert np.allclose(values, 0.0)
        assert vectors.shape == (3, 3)

    def test_empty_matrix(self):
        values, vectors = eig_dense(np.zeros((0, 0)))
        assert values.shape == (0,)
        assert vectors.shape == (0, 0)

    # A (b, n, n) stack is accepted (see test_stack_solves_each_matrix_alone),
    # so the third shape is a stack of non-square matrices.
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 3), (1, 1, 2, 2)])
    def test_non_square_refused(self, shape):
        with pytest.raises(ValueError, match="^eig_dense needs a square matrix$"):
            eig_dense(np.zeros(shape))

    def test_non_finite_entries_name_the_stage(self):
        with pytest.raises(NumericalError, match="^eigensolve: matrix has non-finite entries"):
            eig_dense(np.array([[1.0, np.nan], [np.nan, 1.0]]), hermitian_hint=True)

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, math.nan)],
        ids=["nan", "+inf", "-inf", "complex inf", "complex nan"],
    )
    def test_non_finite_entry_is_refused_before_the_solve(self, monkeypatch, hermitian, bad):
        # One bad entry in the last matrix of a stack: max|M| is not finite
        # there, and no solver runs.
        calls = []
        for name in ("eigh", "eig"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda m, solver=solver: calls.append(m) or solver(m)
            )
        stack = np.array([np.eye(3), 2 * np.eye(3), 3 * np.eye(3)], dtype=type(bad))
        stack[2, 1, 2] = bad
        with pytest.raises(NumericalError, match="^eigensolve: matrix has non-finite entries$"):
            eig_dense(stack, hermitian_hint=hermitian)
        assert calls == []

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_the_separate_finiteness_pass_bit_for_bit(self, hermitian):
        rng = np.random.default_rng(43)
        for n in (0, 1, 2, 5, 12):
            for shape in ((n, n), (3, n, n)):
                for scale in (1e-3, 1.0, 1e6):
                    real = rng.standard_normal(shape)
                    for matrix in (real, real + 1j * rng.standard_normal(shape)):
                        matrix = scale * matrix
                        if hermitian:
                            matrix = matrix + matrix.conj().swapaxes(-1, -2)
                        got = eig_dense(matrix, hermitian_hint=hermitian)
                        want = reference_eig_dense(matrix, hermitian_hint=hermitian)
                        for g, w in zip(got, want):
                            assert g.dtype == w.dtype and g.shape == w.shape
                            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_stack_solves_each_matrix_alone(self, hermitian):
        rng = np.random.default_rng(41)
        for n in (1, 2, 5, 12, 24):
            stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            if hermitian:
                stack = stack + stack.conj().swapaxes(1, 2)
            values, vectors = eig_dense(stack, hermitian_hint=hermitian)
            assert values.shape == (4, n) and vectors.shape == (4, n, n)
            for matrix, got_values, got_vectors in zip(stack, values, vectors):
                want_values, want_vectors = eig_dense(matrix, hermitian_hint=hermitian)
                assert got_values.tobytes() == want_values.tobytes()
                assert got_vectors.tobytes() == want_vectors.tobytes()

    def test_stack_residual_is_held_to_each_matrix_scale(self, monkeypatch):
        # The second matrix's pairs are off by 1e-5: within 1e-8 of the
        # stack's largest entry (2e6), but not of its own (2).
        stack = np.array([np.diag([1e6, 2e6]), np.diag([1.0, 2.0])])
        exact = np.linalg.eigh

        def off(matrix):
            values, vectors = exact(matrix)
            values[1, 0] += 1e-5
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", off)
        with pytest.raises(NumericalError, match=r"^eigensolve: residual 1\.000e-05 exceeds"):
            eig_dense(stack, hermitian_hint=True)

    def test_nan_eigenvector_fails_the_residual(
        self, monkeypatch, dumbbell_base, sym3_catalog, point_stabilizer_ctx
    ):
        # A NaN residual is not within the bound, so the solve is refused.
        exact = np.linalg.eigh

        def poisoned(matrix):
            values, vectors = exact(matrix)
            vectors[..., 0, 0] = np.nan
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        with pytest.raises(NumericalError, match=r"^eigensolve: residual nan exceeds"):
            eig_dense(np.diag([1.0, 2.0]), hermitian_hint=True)
        with pytest.raises(NumericalError, match=r"^eigensolve: residual nan exceeds"):
            lift_spectrum(dumbbell_base, sym3_catalog, point_stabilizer_ctx)

    def test_residual_names_the_stage(self, monkeypatch):
        # A solver that returns the wrong pairs must be caught by the residual.
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(2), np.eye(2)))
        with pytest.raises(NumericalError, match=r"^eigensolve: residual 2\.000e\+00 exceeds"):
            eig_dense(np.diag([1.0, 2.0]), hermitian_hint=True)


def test_is_hermitian_holds_each_matrix_to_its_own_scale():
    # A skew of 1e-9 passes next to entries of 1e6 (tolerance 1e-12 * 1e6)
    # but not next to entries of 1.
    skewed = np.array([[1.0, 1e-9], [0.0, 1.0]])
    stack = np.array([1e6 * np.eye(2) + skewed - np.eye(2), skewed])
    assert spectral.is_hermitian(stack).tolist() == [True, False]
    assert spectral.is_hermitian(stack[0]) is True
    assert spectral.is_hermitian(stack[1]) is False


# A skew planted at an entry: exactly HERMITIAN_TOL, one ulp either side of
# it, or of HERMITIAN_TOL * max|M|, so that the scale decides; and the
# non-finite entries that must still reach the scale.
_PLANTS = ("none", "tol", "tol+", "tol-", "scaled+", "scaled-", "nan", "inf", "-inf", "inf pair")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    scale=st.sampled_from((0.0, 1e-3, 1.0, 2.0, 1e6, 1e300)),
    plants=st.lists(
        st.tuples(st.sampled_from(_PLANTS), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)),
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_is_hermitian_matches_the_expression_that_always_takes_the_scale(shape, scale, plants, seed):
    b, n = shape
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    stack = scale * (raw + raw.conj().swapaxes(-1, -2)) / 2
    tol = spectral.HERMITIAN_TOL
    for kind, m, i, j in plants:
        m, i, j = m % b, i % n, j % n
        big = tol * max(1.0, float(np.abs(stack[m]).max()))
        skew = {
            "tol": tol,
            "tol+": np.nextafter(tol, 1.0),
            "tol-": np.nextafter(tol, 0.0),
            "scaled+": np.nextafter(big, np.inf),
            "scaled-": np.nextafter(big, 0.0),
        }
        if i == j and kind in skew:
            stack[m, i, i] = stack[m, i, i].real + 0.5j * skew[kind]
        elif kind in skew:
            # The pair's skew is then exactly the planted value.
            stack[m, i, j], stack[m, j, i] = skew[kind], 0.0
        elif kind == "inf pair":
            stack[m, i, j] = stack[m, j, i] = np.inf
        elif kind != "none":
            stack[m, i, j] = float(kind)
    # An infinite entry facing an infinite one gives inf - inf = NaN on purpose.
    with np.errstate(invalid="ignore"):
        got = spectral.is_hermitian(stack)
        want = reference_is_hermitian(stack)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for m in range(b):
            assert spectral.is_hermitian(stack[m]) is reference_is_hermitian(stack[m])


class TestLiftSpectrum:
    def test_dumbbell_relative(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        report = lift_spectrum(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        assert report.total == 6
        values = np.sort(report.expand().real)
        assert multiset_distance(values, DUMBBELL_RELATIVE) < 1e-9

    def test_dumbbell_regular(self, dumbbell_base, sym3_catalog, trivial_ctx):
        report = lift_spectrum(dumbbell_base, sym3_catalog, trivial_ctx)
        assert report.total == 12
        values = np.sort(report.expand().real)
        assert multiset_distance(values, DUMBBELL_REGULAR) < 1e-9

    def test_dumbbell_full_subgroup(self, dumbbell_base, sym3_catalog, full_ctx):
        report = lift_spectrum(dumbbell_base, sym3_catalog, full_ctx)
        values = np.sort(report.expand().real)
        assert multiset_distance(values, [1.0, 3.0]) < 1e-9

    def test_provenance_tags(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        report = lift_spectrum(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        by_value = {round(e.value.real, 6): e for e in report.entries}
        # 3 comes from the trivial irrep, the quartet from the plane irrep.
        assert by_value[3.0].provenance == ((0, 1, 1),)
        assert by_value[round(SQRT3, 6)].provenance == ((2, 2, 1),)
        assert by_value[round(-SQRT7, 6)].provenance == ((2, 2, 1),)
        # The sign irrep is rank-killed and contributes nothing.
        assert all(
            (1, 1, 1) not in e.provenance and 1 not in {p[0] for p in e.provenance}
            for e in report.entries
        )

    def test_multiplicity_merging(self, sym3, sym3_catalog, trivial_ctx):
        # A graph with no edges: every eigenvalue is 0 with multiplicity kn.
        base = build_base_matrix(VoltageGraph.build(sym3, ["a", "b"], []))
        report = lift_spectrum(base, sym3_catalog, trivial_ctx)
        assert len(report.entries) == 1
        assert report.entries[0].count == 12
        assert report.entries[0].value == pytest.approx(0.0)

    def test_incomplete_irreps_fail_loudly(self, sym3, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        partial = IrrepSet(group=sym3, irreps=(sym3_catalog[0], sym3_catalog[1]))
        with pytest.raises(NumericalError):
            lift_spectrum(dumbbell_base, partial, point_stabilizer_ctx)

    def test_directed_base_rejected(self, sym3, sym3_catalog, trivial_ctx):
        graph = VoltageGraph.build(sym3, ["a"], [("a", "a", 3)], directed=True)
        with pytest.raises(ConsistencyError):
            lift_spectrum(build_base_matrix(graph), sym3_catalog, trivial_ctx)

    def test_group_mismatch(self, dumbbell_base, sym3_catalog):
        other = builtin_irreps("cyclic", 2)
        ctx = right_cosets(other.group, frozenset({0}))
        with pytest.raises(ConsistencyError):
            lift_spectrum(dumbbell_base, other, ctx)
        with pytest.raises(ConsistencyError):
            lift_spectrum(dumbbell_base, sym3_catalog, ctx)

    def test_matches_explicit_lift_on_random_instances(self, sym3, sym3_catalog):
        rng = np.random.default_rng(32)
        for _ in range(15):
            edges = []
            labels = ["a", "b", "c"]
            for i in range(3):
                for j in range(i, 3):
                    for _ in range(int(rng.integers(0, 2))):
                        edges.append((labels[i], labels[j], int(rng.integers(6))))
            graph = VoltageGraph.build(sym3, labels, edges)
            members = subgroup_closure(sym3, [int(rng.integers(6))])
            ctx = right_cosets(sym3, members)
            report = lift_spectrum(build_base_matrix(graph), sym3_catalog, ctx)
            reference = np.linalg.eigvalsh(build_lift(graph, ctx).adjacency.astype(float))
            assert multiset_distance(np.sort(report.expand().real), reference) < 1e-9

    def test_spectrum_size_check_names_the_stage(
        self, monkeypatch, dumbbell_base, sym3_catalog, point_stabilizer_ctx
    ):
        inflated = [2, 0, 2]
        monkeypatch.setattr(spectral, "subgroup_ranks", lambda irrep_set, ctx: inflated)
        with pytest.raises(
            NumericalError, match="^spectrum merge: spectrum size 12 does not match lift order 6"
        ):
            lift_spectrum(dumbbell_base, sym3_catalog, point_stabilizer_ctx)


def _expand_by_list(entries):
    """``SpectrumReport.expand`` as a list build over entries, one value per multiplicity."""
    return np.array([e.value for e in entries for _ in range(e.count)], dtype=complex)


def _report(entries):
    """A report of ``(value, count, provenance)`` triples, held as ``lift_spectrum`` holds one."""
    values = np.array([v for v, _, _ in entries], dtype=complex)
    counts = np.array([c for _, c, _ in entries], dtype=np.intp)
    values.flags.writeable = counts.flags.writeable = False
    provenance = tuple(p for _, _, p in entries)
    return SpectrumReport(
        values=values, counts=counts, provenance=provenance, total=int(counts.sum())
    )


def _entry_types(entries):
    """The Python types of every entry's fields, down to its provenance tags."""
    return [
        [type(e.value), type(e.count), type(e.provenance)]
        + [tuple(map(type, tag)) for tag in e.provenance]
        for e in entries
    ]


@pytest.mark.parametrize(
    "entries",
    [
        (),
        ((-0.0, 2, ()), (1.5, 1, ()), (2.0 - 1e-300j, 3, ())),
        ((0.0, 4, ()), (1, 2, ())),
    ],
    ids=["empty", "complex", "real and int"],
)
def test_expand_matches_the_list_build(entries):
    report = _report(entries)
    expected = tuple(SpectrumEntry(value=complex(v), count=c, provenance=p) for v, c, p in entries)
    assert entry_bits(report.entries) == entry_bits(expected)
    assert _entry_types(report.entries) == _entry_types(expected)
    got = report.expand()
    for want in (_expand_by_list(expected), reference_expand(expected)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    want_json = reference_report_json(expected, report.total)
    assert json.dumps(report.to_json(), indent=2) == json.dumps(want_json, indent=2)


def test_lift_spectrum_builds_entries_only_when_read(
    monkeypatch, dumbbell_base, sym3_catalog, trivial_ctx
):
    built = []

    def counting(*fields):
        built.append(fields)
        return SpectrumEntry(*fields)

    monkeypatch.setattr(spectral, "SpectrumEntry", counting)
    report = lift_spectrum(dumbbell_base, sym3_catalog, trivial_ctx)
    report.expand()
    report.to_json()
    assert built == [] and "entries" not in vars(report)
    entries = report.entries
    assert len(built) == len(entries) == report.values.size == 8
    assert report.entries is entries
    assert len(built) == 8


TOL = spectral.DEFAULT_MATCH_TOL


def _ulps(x, steps):
    """``x`` moved by ``steps`` units in the last place (negative: downwards)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


class TestMergeSpectra:
    """The array merge against the tuple merge it replaced, on hand-placed values."""

    @staticmethod
    def merge(spectra, tags, tol=TOL):
        spectra = [np.array(values, dtype=float) for values in spectra]
        values, counts, provenance = spectral._merge_spectra(spectra, tags, tol)
        assert values.dtype == complex and counts.dtype == np.intp
        assert not values.flags.writeable and not counts.flags.writeable
        assert values.shape == counts.shape == (len(provenance),)
        report = SpectrumReport(
            values=values, counts=counts, provenance=provenance, total=int(counts.sum())
        )
        expected = reference_merge(spectra, tags, tol)
        assert entry_bits(report.entries) == entry_bits(expected)
        assert _entry_types(report.entries) == _entry_types(expected)
        return report.entries

    def test_chain_closer_than_the_tolerance_splits_at_each_anchor(self):
        # Neighbours 0.6 * tol apart: each anchor takes only the next value,
        # so a neighbour-gap rule (which would merge the whole chain) fails.
        chain = [i * 0.6 * TOL for i in range(9)]
        entries = self.merge([chain], [(0, 1, 1)])
        assert [e.count for e in entries] == [2, 2, 2, 2, 1]
        entries = self.merge([chain[0::2], chain[1::2]], [(0, 1, 1), (3, 2, 2)])
        assert [e.count for e in entries] == [3, 3, 3, 3, 1]
        assert entries[0].provenance == ((0, 1, 1), (3, 2, 2))

    @pytest.mark.parametrize("tol", [TOL, 0.25, 0.0])
    def test_gap_of_exactly_the_tolerance_merges(self, tol):
        above = math.nextafter(tol, math.inf)
        assert [e.count for e in self.merge([[0.0, tol]], [(0, 1, 1)], tol)] == [2]
        assert [e.count for e in self.merge([[0.0, above]], [(0, 1, 1)], tol)] == [1, 1]
        chain = [0.0, tol, 2 * tol, 2 * tol + above]
        self.merge([chain], [(0, 1, 1)], tol)

    @pytest.mark.parametrize("anchor", [1.0, -3.5, 0.1, 17.3, 1234.5])
    def test_values_next_to_anchor_plus_tolerance(self, anchor):
        # fl(anchor + tol) and the rule's rounded difference disagree on some
        # of these, so the merge must apply the rule itself.  The middle value
        # links the last one to the anchor's entry through its neighbour.
        edge = anchor + TOL
        middle = anchor + 0.5 * TOL
        for steps in range(-3, 4):
            last = _ulps(edge, steps)
            self.merge([[anchor, last]], [(0, 1, 1)])
            self.merge([[anchor, middle, last]], [(0, 1, 1)])
            self.merge([[anchor, middle], [last]], [(0, 1, 1), (1, 1, 2)])

    def test_ties_across_irreps_keep_irrep_order(self):
        spectra = [[-1.0, 1.0, 2.0], [1.0, 2.0 + 0.5 * TOL], [-1.0, 1.0]]
        tags = [(0, 1, 1), (2, 2, 1), (4, 3, 2)]
        entries = self.merge(spectra, tags)
        assert [(e.count, e.provenance) for e in entries] == [
            (3, ((0, 1, 1), (4, 3, 2))),
            (4, ((0, 1, 1), (2, 2, 1), (4, 3, 2))),
            (2, ((0, 1, 1), (2, 2, 1))),
        ]

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_keep_the_first_irrep_value(self, first, second):
        entries = self.merge([[first], [second]], [(0, 1, 1), (1, 1, 1)])
        assert len(entries) == 1
        assert math.copysign(1.0, entries[0].value.real) == math.copysign(1.0, first)
        self.merge([[-0.0, 0.0]], [(0, 1, 3)])

    def test_empty_spectrum(self):
        assert self.merge([[]], [(0, 1, 1)]) == ()


@st.composite
def _spectrum_cases(draw):
    """A catalog, a random subgroup, a base with k from 1 to 4 (edges optional)."""
    names = ["S4", "A5", "D6", "D6 computed", "S5", "C60", *UNSORTED]
    irrep_set = _catalog(draw(st.sampled_from(names)))
    group = irrep_set.group
    element = st.integers(0, group.order - 1)
    members = subgroup_closure(group, draw(st.lists(element, max_size=2)))
    k = draw(st.integers(1, 4))
    vertex = st.integers(0, k - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, element), max_size=2 * k))
    labelled = [(str(u), str(v), g) for u, v, g in edges]
    graph = VoltageGraph.build(group, [str(v) for v in range(k)], labelled)
    match_tol = draw(st.sampled_from([TOL, 1e-3, 0.3, 1.0]))
    return irrep_set, right_cosets(group, members), build_base_matrix(graph), match_tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_spectrum_cases())
def test_array_merge_matches_the_tuple_merge_bit_for_bit(case):
    irrep_set, ctx, base, match_tol = case
    report = lift_spectrum(base, irrep_set, ctx, match_tol=match_tol)
    expected = reference_spectrum_entries(base, irrep_set, ctx, match_tol)
    assert entry_bits(report.entries) == entry_bits(expected)
    assert _entry_types(report.entries) == _entry_types(expected)
    assert type(report.total) is int and report.total == sum(e.count for e in expected)
    want_json = reference_report_json(expected, report.total)
    assert json.dumps(report.to_json(), indent=2) == json.dumps(want_json, indent=2)
    got = report.expand()
    for want in (_expand_by_list(expected), reference_expand(expected)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["S4", "D6", "S5", "C60", *UNSORTED])
def test_stacks_of_several_irreps_match_the_per_irrep_solves(name):
    # Over the trivial subgroup every irrep is solved, so each run of two or
    # more consecutive irreps of one dimension (S4's two 3-dimensional ones,
    # D6's four 1-dimensional ones, all sixty of C60, the shuffled S5's two
    # 4-dimensional ones) is one stack, and the unsorted sets also solve
    # irreps of a shared dimension in separate stacks.
    irrep_set = _catalog(name)
    group = irrep_set.group
    assert max(len(members) for members in _by_dimension(irrep_set).values()) >= 2
    rng = np.random.default_rng(len(name))
    k = 4
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (0, 2)]
    edges = [(str(u), str(v), int(rng.integers(group.order))) for u, v in pairs]
    base = build_base_matrix(VoltageGraph.build(group, [str(v) for v in range(k)], edges))
    ctx = right_cosets(group, frozenset({group.identity}))
    report = lift_spectrum(base, irrep_set, ctx)
    expected = reference_spectrum_entries(base, irrep_set, ctx, TOL)
    assert entry_bits(report.entries) == entry_bits(expected)


def _cycle_base(group, k):
    """A k-cycle base whose arcs carry varied elements, plus one loop."""
    edges = [(str(v), str((v + 1) % k), (7 * v + 1) % group.order) for v in range(k)]
    edges.append(("0", "0", 11 % group.order))
    return build_base_matrix(VoltageGraph.build(group, [str(v) for v in range(k)], edges))


def test_a_dimension_solved_in_several_slices_keeps_its_bits(monkeypatch):
    # Sixty one-dimensional images of a 5-vertex base, 3 to a slice.
    irrep_set = _catalog("C60")
    group = irrep_set.group
    base = _cycle_base(group, 5)
    ctx = right_cosets(group, frozenset({group.identity}))
    expected = reference_spectrum_entries(base, irrep_set, ctx, TOL)
    original = spectral.irrep_image
    calls = []

    def recording(base, irreps):
        calls.append(len(irreps))
        return original(base, irreps)

    monkeypatch.setattr(spectral, "irrep_image", recording)
    assert entry_bits(lift_spectrum(base, irrep_set, ctx).entries) == entry_bits(expected)
    assert calls == [60]
    calls.clear()
    monkeypatch.setattr(spectral, "IMAGE_STACK_ENTRIES", 3 * 5 * 5 + 1)
    assert entry_bits(lift_spectrum(base, irrep_set, ctx).entries) == entry_bits(expected)
    assert calls == [3] * 20


def test_image_stacks_keep_peak_memory_bounded():
    # Sixty 96 x 96 images take 8.8 MB as one stack, and an eigensolve keeps
    # several arrays of that size alive; in slices of IMAGE_STACK_ENTRIES
    # the route stays within a few slices' worth.
    irrep_set = _catalog("C60")
    group = irrep_set.group
    base = _cycle_base(group, 96)
    ctx = right_cosets(group, frozenset({group.identity}))
    slice_bytes = spectral.IMAGE_STACK_ENTRIES * 16
    assert 60 * 96**2 * 16 > 8 * slice_bytes
    lift_spectrum(base, irrep_set, ctx)
    tracemalloc.start()
    try:
        report = lift_spectrum(base, irrep_set, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.total == 96 * 60
    assert peak < 8 * slice_bytes, peak / slice_bytes


def test_lift_routes_read_only_the_voltage_table(
    dumbbell, sym3, sym3_catalog, point_stabilizer_ctx
):
    base = build_base_matrix(dumbbell)
    lift_spectrum(base, sym3_catalog, point_stabilizer_ctx)
    lift_eigenvectors(base, sym3_catalog, point_stabilizer_ctx)
    assert "entries" not in vars(base)
    assert base.entry(0, 1).coefficients == {sym3.identity: 1 + 0j}
    assert "entries" in vars(base)


@functools.cache
def _cycle_lift(m):
    """``cyclic`` m and the one-vertex base whose loop carries the m-cycle: the cycle C_m."""
    irrep_set = builtin_irreps("cyclic", m)
    group = irrep_set.group
    cycle = parse_permutation("(" + " ".join(map(str, range(1, m + 1))) + ")", m)
    graph = VoltageGraph.build(group, ["a"], [("a", "a", group.index_of(cycle))])
    return irrep_set, right_cosets(group, frozenset({group.identity})), graph


@pytest.mark.parametrize("m", [700, 1000])
def test_cycle_graph_lift_spectrum_is_two_cos(m):
    # An unreduced phase j*s up to (m - 1)^2 made these images fail the
    # Hermitian test (NumericalError), from m = 700 on.
    irrep_set, ctx, graph = _cycle_lift(m)
    report = lift_spectrum(build_base_matrix(graph), irrep_set, ctx)
    exact = np.sort(2 * np.cos(2 * np.pi * np.arange(m) / m))
    assert report.total == m
    assert np.max(np.abs(np.sort(report.expand().real) - exact)) < 1e-12


class TestLiftEigenvectors:
    def test_dumbbell_bundle_layout(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        assert bundle.kn == 6
        assert len(bundle.columns) == 12
        assert len(bundle.selected_basis) == 6
        # Sign-irrep columns are flagged zero and never selected.
        sign_cols = [c for c in bundle.columns if c.irrep == 1]
        assert len(sign_cols) == 2
        assert all(c.zero and not c.selected for c in sign_cols)

    def test_columns_satisfy_eigen_equation(self, dumbbell, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        lift = build_lift(dumbbell, point_stabilizer_ctx)
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        for column in bundle.columns:
            if column.zero:
                assert np.max(np.abs(column.vector)) < 1e-9
                continue
            residual = np.linalg.norm(
                lift.adjacency @ column.vector - column.eigenvalue * column.vector
            )
            assert residual < 1e-8 * max(1.0, np.linalg.norm(column.vector))

    def test_selected_columns_span(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        basis = np.column_stack(
            [bundle.columns[i].vector for i in bundle.selected_basis]
        )
        assert np.linalg.matrix_rank(basis, tol=1e-9) == 6

    def test_row_block_relation_for_rank_one_sum(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        # The plane irrep's subgroup sum has rank 1 with second row equal to
        # -sqrt(3) times the first, so the j=1 columns repeat the j=0 columns
        # scaled by -sqrt(3).
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        plane = [c for c in bundle.columns if c.irrep == 2]
        by_tag = {(c.j, c.w, c.i): c for c in plane}
        for w in range(2):
            for i in range(2):
                first = by_tag[(0, w, i)]
                second = by_tag[(1, w, i)]
                assert np.max(np.abs(second.vector + ROOT3 * first.vector)) < 1e-9

    def test_eigenvalue_three_column_constant(self, dumbbell_base, sym3_catalog, point_stabilizer_ctx):
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        three = [
            c
            for c in bundle.columns
            if c.irrep == 0 and abs(c.eigenvalue - 3.0) < 1e-9
        ]
        assert len(three) == 1
        vec = three[0].vector
        assert np.max(np.abs(vec - vec[0])) < 1e-9
        assert abs(vec[0]) > 0.1

    def test_full_subgroup_bundle(self, dumbbell_base, sym3_catalog, full_ctx):
        bundle = lift_eigenvectors(dumbbell_base, sym3_catalog, full_ctx)
        assert bundle.kn == 2
        selected = [bundle.columns[i] for i in bundle.selected_basis]
        assert sorted(round(c.eigenvalue.real, 6) for c in selected) == [1.0, 3.0]
        # Only trivial-irrep columns survive over the full group.
        assert all(c.irrep == 0 for c in selected)

    def test_selected_count_across_random_instances(self, sym3, sym3_catalog):
        rng = np.random.default_rng(34)
        for _ in range(10):
            edges = []
            labels = ["a", "b"]
            for pair in (("a", "a"), ("a", "b"), ("b", "b")):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((*pair, int(rng.integers(6))))
            graph = VoltageGraph.build(sym3, labels, edges)
            base = build_base_matrix(graph)
            members = subgroup_closure(sym3, [int(rng.integers(6))])
            ctx = right_cosets(sym3, members)
            bundle = lift_eigenvectors(base, sym3_catalog, ctx)
            assert len(bundle.selected_basis) == bundle.kn
            selected = {i for i in bundle.selected_basis}
            assert all(not bundle.columns[i].zero for i in selected)


class TestOracle:
    def test_dumbbell_passes(self, dumbbell, sym3_catalog, point_stabilizer_ctx):
        report = verify_against_oracle(dumbbell, sym3_catalog, point_stabilizer_ctx)
        assert report.passed
        assert report.spectral_distance < 1e-10
        assert report.max_residual < 1e-10
        assert report.kn == 6
        assert report.selected_count == 6

    def test_regular_and_full_contexts(self, dumbbell, sym3, sym3_catalog, trivial_ctx, full_ctx):
        for ctx in (trivial_ctx, full_ctx):
            report = verify_against_oracle(dumbbell, sym3_catalog, ctx)
            assert report.passed

    def test_computed_irreps_work_too(self, dumbbell, sym3, point_stabilizer_ctx):
        group = generate_group(
            [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        )
        # Rebuild the dumbbell over the freshly generated group so object
        # identities line up.
        irr = compute_irreps(group, seed=0)
        g = group.index_of(parse_permutation("(2 3)", 3))
        h = group.index_of(parse_permutation("(1 2)", 3))
        graph = VoltageGraph.build(
            group, ["u", "v"], [("u", "u", g), ("u", "v", 0), ("v", "v", h)]
        )
        from liftspectra import stabilizer

        ctx = right_cosets(group, stabilizer(group, 1))
        report = verify_against_oracle(graph, irr, ctx)
        assert report.passed

    def test_directed_graph_rejected(self, sym3, sym3_catalog, trivial_ctx):
        graph = VoltageGraph.build(sym3, ["a"], [("a", "a", 3)], directed=True)
        with pytest.raises(ConsistencyError):
            verify_against_oracle(graph, sym3_catalog, trivial_ctx)

    def test_report_bytes_match_the_int64_per_column_products(self):
        """Casting the adjacency once leaves every reported bit as it was."""
        group = generate_group([parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)", 4)])
        irr = compute_irreps(group, seed=0)
        rng = np.random.default_rng(14)
        subgroups = [[group.identity], [int(rng.integers(group.order))], list(range(group.order))]
        tols = (spectral.DEFAULT_MATCH_TOL, spectral.DEFAULT_RESIDUAL_TOL)
        for k in (2, 4, 6):
            labels = [str(i) for i in range(k)]
            edges = [
                (labels[i], labels[(i + step) % k], int(rng.integers(group.order)))
                for i in range(k)
                for step in (0, 1)
            ]
            graph = VoltageGraph.build(group, labels, edges)
            for members in subgroups:
                ctx = right_cosets(group, subgroup_closure(group, members))
                got = verify_against_oracle(graph, irr, ctx, *tols)
                want = reference_verify_against_oracle(graph, irr, ctx, *tols)
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())
                assert got.max_residual.hex() == want.max_residual.hex()

    def test_nan_residual_fails_the_report(
        self, monkeypatch, dumbbell, sym3_catalog, point_stabilizer_ctx
    ):
        original = spectral.lift_eigenvectors

        def poisoned(*args, **kwargs):
            bundle = original(*args, **kwargs)
            block = bundle.blocks[0]
            block.pulled[0, np.flatnonzero(block.selected)[0]] = np.nan
            return bundle

        monkeypatch.setattr(spectral, "lift_eigenvectors", poisoned)
        report = verify_against_oracle(dumbbell, sym3_catalog, point_stabilizer_ctx)
        assert math.isnan(report.max_residual)
        assert not report.passed

    @pytest.mark.parametrize(
        "value, count, message",
        [
            (1j, 6, "^oracle check: undirected lift produced non-real eigenvalues"),
            (complex(0.0, math.nan), 6, "^oracle check: undirected lift produced non-real"),
            (1.0, 5, "^oracle check: spectrum sizes differ: 5 vs 6"),
        ],
    )
    def test_blockwise_spectrum_checks_name_the_stage(
        self, monkeypatch, dumbbell, sym3_catalog, point_stabilizer_ctx, value, count, message
    ):
        report = _report([(value, count, ())])
        monkeypatch.setattr(spectral, "lift_spectrum", lambda *args, **kwargs: report)
        with pytest.raises(NumericalError, match=message):
            verify_against_oracle(dumbbell, sym3_catalog, point_stabilizer_ctx)
