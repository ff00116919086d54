import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftspectra import characters
from liftspectra import (
    BaseMatrix,
    ConsistencyError,
    GroupAlgebraElement,
    IrrepSet,
    NumericalError,
    VoltageGraph,
    apply_character,
    base_matrix_power,
    build_base_matrix,
    build_lift,
    builtin_irreps,
    lift_spectrum,
    parse_permutation,
    power_sums_to_roots,
    regular_spectrum_via_characters,
    right_cosets,
)

from conftest import DUMBBELL_REGULAR
from helpers import multiset_distance, reference_power_sums_to_roots


def _elem(group, text):
    return group.index_of(parse_permutation(text, group.degree))


class TestApplyCharacter:
    def test_zero_element(self, sym3, sym3_catalog):
        zero = GroupAlgebraElement.zero(sym3)
        assert apply_character(sym3_catalog[2].character, zero) == 0j

    def test_plane_character_on_identity_multiple(self, sym3, sym3_catalog):
        ten_e = GroupAlgebraElement.from_element(sym3, sym3.identity, 10.0)
        assert apply_character(sym3_catalog[2].character, ten_e) == pytest.approx(20.0)

    def test_conjugate_elements_agree(self, sym3, sym3_catalog):
        # Characters are class functions: 66e + 8gh + 8hg and the collapsed
        # 66e + 16gh are indistinguishable to every character.
        e, gh, hg = sym3.identity, _elem(sym3, "(1 2 3)"), _elem(sym3, "(1 3 2)")
        split = GroupAlgebraElement(sym3, {e: 66.0, gh: 8.0, hg: 8.0})
        collapsed = GroupAlgebraElement(sym3, {e: 66.0, gh: 16.0})
        for irrep in sym3_catalog:
            lhs = apply_character(irrep.character, split)
            rhs = apply_character(irrep.character, collapsed)
            assert lhs == pytest.approx(rhs)
        assert apply_character(sym3_catalog[2].character, split) == pytest.approx(116.0)

    def test_linearity(self, sym3, sym3_catalog):
        rng = np.random.default_rng(41)
        chi = sym3_catalog[2].character
        for _ in range(10):
            a = GroupAlgebraElement(
                sym3, {int(i): complex(rng.normal(), rng.normal()) for i in range(6)}
            )
            b = GroupAlgebraElement(
                sym3, {int(i): complex(rng.normal(), rng.normal()) for i in range(6)}
            )
            lhs = apply_character(chi, a + b)
            rhs = apply_character(chi, a) + apply_character(chi, b)
            assert lhs == pytest.approx(rhs)


class TestPowerSumsToRoots:
    def test_dumbbell_plane_sums(self):
        roots = power_sums_to_roots([0.0, 20.0, 0.0, 116.0])
        expected = sorted([-np.sqrt(7), -np.sqrt(3), np.sqrt(3), np.sqrt(7)])
        assert multiset_distance(roots, expected) < 1e-9

    def test_single_root(self):
        roots = power_sums_to_roots([5.0])
        assert np.allclose(roots, [5.0])

    def test_pair(self):
        roots = power_sums_to_roots([0.0, 2.0])
        assert multiset_distance(roots, [-1.0, 1.0]) < 1e-12

    def test_repeated_roots(self):
        true = [2.0, 2.0, -1.0]
        sums = [sum(r**l for r in true) for l in (1, 2, 3)]
        roots = power_sums_to_roots(sums)
        assert multiset_distance(roots, sorted(true)) < 1e-7

    def test_complex_roots(self):
        true = [1j, -1j, 0.5]
        sums = [sum(r**l for r in true) for l in (1, 2, 3)]
        roots = power_sums_to_roots(sums)
        assert multiset_distance(roots, true) < 1e-8

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            power_sums_to_roots([0.0] * 33)

    def test_no_power_sums(self):
        with pytest.raises(ValueError, match="^degree must be at least 1, got 0$"):
            power_sums_to_roots([])

    def test_failed_roundtrip_names_the_stage(self, monkeypatch):
        # Roots that do not reproduce the power sums must be refused.
        wrong = np.array([10.0, 20.0], dtype=complex)
        monkeypatch.setattr(characters, "eig_dense", lambda m: (wrong, None))
        with pytest.raises(NumericalError, match="^power-sum roundtrip: failed at l=1"):
            power_sums_to_roots([3.0, 5.0])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = int(rng.integers(1, 9))
            true = rng.uniform(-4, 4, m) + 1j * rng.uniform(-4, 4, m)
            sums = [complex(np.sum(true**l)) for l in range(1, m + 1)]
            roots = power_sums_to_roots(sums)
            assert multiset_distance(roots, true) < 1e-6


def _roots_outcome(sums):
    try:
        return power_sums_to_roots(sums).tobytes()
    except NumericalError as exc:
        return str(exc)


def _reference_roots_outcome(sums):
    try:
        return reference_power_sums_to_roots(sums).tobytes()
    except NumericalError as exc:
        return str(exc)


# Real, complex and repeated parts, so that zero signs and ties in the
# sort order are exercised.
PARTS = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(roots=st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=8))
def test_roots_match_the_resorting_reference_bit_for_bit(roots):
    values = [complex(re, im) for re, im in roots]
    sums = [sum(r**ell for r in values) for ell in range(1, len(values) + 1)]
    assert _roots_outcome(sums) == _reference_roots_outcome(sums)


class TestRegularSpectrumViaCharacters:
    def test_dumbbell(self, dumbbell_base, sym3_catalog):
        result = regular_spectrum_via_characters(dumbbell_base, sym3_catalog)
        assert result.total == 12
        assert np.max(np.abs(result.spectrum.imag)) < 1e-9
        assert multiset_distance(result.spectrum.real, DUMBBELL_REGULAR) < 1e-7

    def test_dumbbell_power_sum_profiles(self, dumbbell_base, sym3_catalog):
        # Each irrep needs only its own dim * k power sums: two for the
        # one-dimensional irreps, four for the plane irrep.
        result = regular_spectrum_via_characters(dumbbell_base, sym3_catalog)
        profiles = {p.irrep: p for p in result.profiles}
        assert [round(s.real) for s in profiles[0].power_sums] == [4, 10]
        assert [round(s.real) for s in profiles[1].power_sums] == [-4, 10]
        assert [round(s.real) for s in profiles[2].power_sums] == [0, 20, 0, 116]

    def test_agrees_with_blockwise_route(self, sym3, sym3_catalog):
        rng = np.random.default_rng(43)
        ctx = right_cosets(sym3, frozenset({sym3.identity}))
        labels = ["a", "b"]
        for _ in range(10):
            edges = []
            for pair in (("a", "a"), ("a", "b"), ("b", "b")):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((*pair, int(rng.integers(6))))
            base = build_base_matrix(VoltageGraph.build(sym3, labels, edges))
            via_chars = regular_spectrum_via_characters(base, sym3_catalog)
            via_blocks = lift_spectrum(base, sym3_catalog, ctx)
            assert (
                multiset_distance(via_chars.spectrum, via_blocks.expand()) < 1e-6
            )

    def test_noncommutative_dihedral_case(self):
        irr = builtin_irreps("dihedral", 4)
        group = irr.group
        rng = np.random.default_rng(44)
        ctx = right_cosets(group, frozenset({group.identity}))
        graph = VoltageGraph.build(
            group,
            ["a", "b"],
            [
                ("a", "a", int(rng.integers(8))),
                ("a", "b", int(rng.integers(8))),
                ("b", "b", int(rng.integers(8))),
            ],
        )
        base = build_base_matrix(graph)
        via_chars = regular_spectrum_via_characters(base, irr)
        via_blocks = lift_spectrum(base, irr, ctx)
        assert multiset_distance(via_chars.spectrum, via_blocks.expand()) < 1e-6

    def test_directed_base_graph(self):
        # The character route covers digraphs; cross-check against the
        # explicitly built directed lift.
        irr = builtin_irreps("cyclic", 3)
        group = irr.group
        graph = VoltageGraph.build(
            group,
            ["a", "b", "c"],
            [("a", "b", 1), ("b", "c", 0), ("c", "a", 2), ("a", "a", 1)],
            directed=True,
        )
        base = build_base_matrix(graph)
        result = regular_spectrum_via_characters(base, irr)
        lift = build_lift(graph, right_cosets(group, frozenset({group.identity})))
        reference = np.linalg.eigvals(lift.adjacency.astype(float))
        assert result.total == 9
        assert multiset_distance(result.spectrum, reference) < 1e-6

    def test_trivial_group(self):
        irr = builtin_irreps("cyclic", 1)
        group = irr.group
        graph = VoltageGraph.build(group, ["a", "b"], [("a", "b", 0)])
        base = build_base_matrix(graph)
        result = regular_spectrum_via_characters(base, irr)
        assert multiset_distance(result.spectrum, [-1.0, 1.0]) < 1e-9

    def test_degree_above_the_newton_cap_is_refused_before_any_power(
        self, monkeypatch, dumbbell_base, sym3_catalog
    ):
        products = []
        matmul = BaseMatrix.__matmul__

        def spy(left, right):
            products.append(1)
            return matmul(left, right)

        monkeypatch.setattr(BaseMatrix, "__matmul__", spy)
        regular_spectrum_via_characters(dumbbell_base, sym3_catalog)
        assert products
        products.clear()
        # The plane irrep of D3 on a 17-vertex path needs 34 power sums.
        irrep_set = builtin_irreps("dihedral", 3)
        group = irrep_set.group
        labels = [str(v) for v in range(17)]
        edges = [(a, b, group.identity) for a, b in zip(labels, labels[1:])]
        edges.append(("0", "0", _elem(group, "(1 2 3)")))
        base = build_base_matrix(VoltageGraph.build(group, labels, edges))
        with pytest.raises(
            ConsistencyError,
            match=r"^character spectrum: irrep 2 \(2-dimensional\) needs dim\*k = 34 power "
            r"sums, above MAX_NEWTON_DEGREE = 32",
        ):
            regular_spectrum_via_characters(base, irrep_set)
        assert products == []

    def test_group_mismatch(self, dumbbell_base):
        other = builtin_irreps("cyclic", 2)
        with pytest.raises(ConsistencyError):
            regular_spectrum_via_characters(dumbbell_base, other)

    def test_missing_irrep_names_the_stage(self, dumbbell_base, sym3, sym3_catalog):
        partial = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2])
        message = "^character spectrum: assembled 4 eigenvalues, expected 12"
        with pytest.raises(NumericalError, match=message):
            regular_spectrum_via_characters(dumbbell_base, partial)

    def test_json_payload(self, dumbbell_base, sym3_catalog):
        doc = regular_spectrum_via_characters(dumbbell_base, sym3_catalog).to_json()
        assert doc["total"] == 12
        assert len(doc["spectrum"]) == 12
        assert len(doc["irreps"]) == 3
        assert len(doc["irreps"][2]["power_sums"]) == 4


class TestTraceIdentities:
    def test_character_of_trace_equals_block_trace(self, sym3, sym3_catalog):
        # chi(tr B^l) must equal tr(rho(B)^l) for every irrep and power.
        from liftspectra import irrep_image

        rng = np.random.default_rng(45)
        labels = ["a", "b"]
        for _ in range(8):
            edges = []
            for pair in (("a", "a"), ("a", "b"), ("b", "b")):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((*pair, int(rng.integers(6))))
            base = build_base_matrix(VoltageGraph.build(sym3, labels, edges))
            for irrep in sym3_catalog:
                image = irrep_image(base, irrep).matrix
                for power in (1, 2, 3, 4):
                    block = np.trace(np.linalg.matrix_power(image, power))
                    via_char = apply_character(
                        irrep.character, base_matrix_power(base, power).trace()
                    )
                    assert abs(block - via_char) < 1e-8 * max(1.0, abs(block))


def identity_coefficient(base, irrep_set, vertex, power):
    """Identity coefficient of ``(B^power)[vertex, vertex]`` through the characters.

    Column orthogonality at the identity gives ``(1/|G|) sum_r dim_r chi_r``
    applied to the diagonal entry: the number of closed walks at a lift of
    ``vertex`` in the regular lift whose voltage word is trivial.
    """
    diagonal = base_matrix_power(base, power).entry(vertex, vertex)
    total = sum(r.dim * apply_character(r.character, diagonal) for r in irrep_set)
    return complex(total) / irrep_set.group.order


class TestCoefficientOfIdentity:
    def test_dumbbell_closed_walks(self, dumbbell_base, sym3_catalog):
        # (B^2)[u, u] has identity coefficient 5: the five length-2 closed
        # walks at u whose voltage word collapses to the identity.
        value = identity_coefficient(dumbbell_base, sym3_catalog, 0, 2)
        assert value == pytest.approx(5.0)

    def test_length_one_no_trivial_loop(self, dumbbell_base, sym3_catalog):
        # The loop at u carries a non-identity voltage, so no length-1 walk
        # closes up in the regular lift.
        value = identity_coefficient(dumbbell_base, sym3_catalog, 0, 1)
        assert value == pytest.approx(0.0)

    def test_matches_regular_lift_walk_count(self, sym3, sym3_catalog, trivial_ctx):
        rng = np.random.default_rng(46)
        labels = ["a", "b"]
        for _ in range(6):
            edges = []
            for pair in (("a", "a"), ("a", "b"), ("b", "b")):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((*pair, int(rng.integers(6))))
            graph = VoltageGraph.build(sym3, labels, edges)
            base = build_base_matrix(graph)
            lift = build_lift(graph, trivial_ctx)
            powers = {
                2: np.linalg.matrix_power(lift.adjacency, 2),
                3: np.linalg.matrix_power(lift.adjacency, 3),
            }
            for power, matrix in powers.items():
                for vertex in range(2):
                    # Vertex (v, identity coset) sits at row v * |G|.
                    row = vertex * sym3.order
                    expected = float(matrix[row, row])
                    got = identity_coefficient(base, sym3_catalog, vertex, power)
                    assert got == pytest.approx(expected)
