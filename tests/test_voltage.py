import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftspectra import (
    BaseMatrix,
    ConsistencyError,
    GroupAlgebraElement,
    NumericalError,
    VoltageGraph,
    base_matrix_power,
    build_base_matrix,
    build_lift,
    builtin_irreps,
    generate_group,
    irrep_image,
    local_group_is_transitive,
    parse_permutation,
    randomize_voltages,
    right_cosets,
    stabilizer,
    subgroup_closure,
)

import liftspectra.voltage as voltage
from liftspectra.voltage import VoltageTable
from helpers import (
    ordered_cells,
    reference_arc_cells,
    reference_build_lift,
    reference_cells,
    reference_int_matmul,
    reference_int_trace,
)


def _elem(group, text):
    return group.index_of(parse_permutation(text, group.degree))


class TestGroupAlgebra:
    def test_convolution_with_involution(self, sym3):
        g = _elem(sym3, "(2 3)")
        x = GroupAlgebraElement.from_element(sym3, sym3.identity) + (
            GroupAlgebraElement.from_element(sym3, g)
        )
        square = x * x
        # (e + g)^2 = 2e + 2g when g is an involution.
        assert square.coefficient(sym3.identity) == pytest.approx(2.0)
        assert square.coefficient(g) == pytest.approx(2.0)
        assert sum(abs(c) for c in square.coefficients.values()) == pytest.approx(4.0)

    def test_noncommutative_product_order(self, sym3):
        g = GroupAlgebraElement.from_element(sym3, _elem(sym3, "(2 3)"))
        h = GroupAlgebraElement.from_element(sym3, _elem(sym3, "(1 2)"))
        gh = g * h
        hg = h * g
        # (2 3)(1 2) = (1 2 3) left to right; (1 2)(2 3) = (1 3 2).
        assert gh.coefficient(_elem(sym3, "(1 2 3)")) == pytest.approx(1.0)
        assert hg.coefficient(_elem(sym3, "(1 3 2)")) == pytest.approx(1.0)
        assert gh.coefficients != hg.coefficients

    def test_integer_coefficients(self, sym3):
        x = GroupAlgebraElement(sym3, {0: 3.0 + 0j, 1: 1e-12 + 0j})
        assert x.integer_coefficients() == {0: 3}
        bad = GroupAlgebraElement(sym3, {0: 0.5 + 0j})
        with pytest.raises(NumericalError):
            bad.integer_coefficients()

    def test_non_integer_coefficient_names_the_stage(self, sym3):
        half = GroupAlgebraElement.from_element(sym3, sym3.identity, 0.5)
        message = r"^walk counts: coefficient \(0\.5\+0j\) of element 0 is not an integer within 1e-09$"
        with pytest.raises(NumericalError, match=message):
            half.integer_coefficients()

    def test_group_mismatch(self, sym3):
        other = builtin_irreps("cyclic", 3).group
        a = GroupAlgebraElement.from_element(sym3, 0)
        b = GroupAlgebraElement.from_element(other, 0)
        with pytest.raises(ConsistencyError):
            a + b
        with pytest.raises(ConsistencyError):
            a * b


class TestVoltageGraphBuild:
    def test_undirected_pairs_arcs(self, dumbbell, sym3):
        # 3 edges -> 6 arcs, inverse-paired.
        assert len(dumbbell.arcs) == 6
        for pos, arc in enumerate(dumbbell.arcs):
            mate = dumbbell.arcs[arc.paired_arc]
            assert mate.paired_arc == pos
            assert mate.tail == arc.head and mate.head == arc.tail
            assert mate.voltage == sym3.inv(arc.voltage)

    def test_directed_keeps_arcs(self, sym3):
        graph = VoltageGraph.build(
            sym3, ["a", "b"], [("a", "b", 3)], directed=True
        )
        assert len(graph.arcs) == 1
        assert graph.arcs[0].paired_arc is None

    def test_rejects_unknown_labels(self, sym3):
        with pytest.raises(ConsistencyError):
            VoltageGraph.build(sym3, ["a"], [("a", "b", 0)])

    def test_rejects_duplicate_labels(self, sym3):
        with pytest.raises(ConsistencyError):
            VoltageGraph.build(sym3, ["a", "a"], [])

    def test_rejects_voltage_outside_group(self, sym3):
        with pytest.raises(ConsistencyError):
            VoltageGraph.build(sym3, ["a"], [("a", "a", 6)])
        with pytest.raises(ConsistencyError):
            VoltageGraph.build(sym3, ["a"], [("a", "a", -1)])

    def test_needs_a_vertex(self, sym3):
        with pytest.raises(ConsistencyError):
            VoltageGraph.build(sym3, [], [])

    def test_edge_triples_roundtrip(self, dumbbell, sym3):
        triples = dumbbell.edge_triples()
        rebuilt = VoltageGraph.build(sym3, dumbbell.vertices, triples)
        assert rebuilt.arcs == dumbbell.arcs

    def test_randomize_voltages_deterministic(self, dumbbell):
        a = randomize_voltages(dumbbell, np.random.default_rng(5))
        b = randomize_voltages(dumbbell, np.random.default_rng(5))
        assert a.arcs == b.arcs
        assert a.vertices == dumbbell.vertices
        assert len(a.arcs) == len(dumbbell.arcs)


class TestBaseMatrix:
    def test_dumbbell_entries(self, sym3, dumbbell_base):
        g = _elem(sym3, "(2 3)")
        h = _elem(sym3, "(1 2)")
        b = dumbbell_base
        # Loop at u contributes both orientations of (2 3), an involution.
        assert b.entry(0, 0).coefficient(g) == pytest.approx(2.0)
        assert b.entry(0, 1).coefficient(sym3.identity) == pytest.approx(1.0)
        assert b.entry(1, 0).coefficient(sym3.identity) == pytest.approx(1.0)
        assert b.entry(1, 1).coefficient(h) == pytest.approx(2.0)

    def test_self_adjoint_for_undirected(self, sym3):
        rng = np.random.default_rng(21)
        vertices = ["a", "b", "c"]
        for _ in range(10):
            edges = []
            for i in range(3):
                for j in range(i, 3):
                    for _ in range(int(rng.integers(0, 3))):
                        edges.append(
                            (vertices[i], vertices[j], int(rng.integers(sym3.order)))
                        )
            base = build_base_matrix(VoltageGraph.build(sym3, vertices, edges))
            for u in range(3):
                for v in range(3):
                    fwd = base.entry(u, v)
                    rev = base.entry(v, u)
                    for idx, c in fwd.coefficients.items():
                        assert rev.coefficient(sym3.inv(idx)) == pytest.approx(c)

    def test_empty_graph_zero_matrix(self, sym3):
        base = build_base_matrix(VoltageGraph.build(sym3, ["a", "b"], []))
        for u in range(2):
            for v in range(2):
                assert base.entry(u, v).coefficients == {}

    def test_directed_cycle_pattern(self, sym3):
        graph = VoltageGraph.build(
            sym3,
            ["a", "b", "c"],
            [("a", "b", 0), ("b", "c", 0), ("c", "a", 0)],
            directed=True,
        )
        base = build_base_matrix(graph)
        nonzero = {
            (u, v)
            for u in range(3)
            for v in range(3)
            if base.entry(u, v).coefficients
        }
        assert nonzero == {(0, 1), (1, 2), (2, 0)}


class TestBaseMatrixPowers:
    def test_dumbbell_traces(self, sym3, dumbbell_base):
        g = _elem(sym3, "(2 3)")
        h = _elem(sym3, "(1 2)")
        gh = _elem(sym3, "(1 2 3)")
        hg = _elem(sym3, "(1 3 2)")

        t1 = dumbbell_base.trace().integer_coefficients()
        assert t1 == {g: 2, h: 2}

        t2 = base_matrix_power(dumbbell_base, 2).trace().integer_coefficients()
        assert t2 == {sym3.identity: 10}

        t3 = base_matrix_power(dumbbell_base, 3).trace().integer_coefficients()
        assert t3 == {g: 14, h: 14}

        # The fourth trace by true convolution keeps the two conjugate
        # three-cycles separate: 66e + 8(1 2 3) + 8(1 3 2).
        t4 = base_matrix_power(dumbbell_base, 4).trace().integer_coefficients()
        assert t4 == {sym3.identity: 66, gh: 8, hg: 8}

    def test_power_one_is_identity_operation(self, dumbbell_base):
        p1 = base_matrix_power(dumbbell_base, 1)
        for u in range(2):
            for v in range(2):
                assert p1.entry(u, v).coefficients == dumbbell_base.entry(u, v).coefficients

    def test_power_checks_the_table_without_building_the_grid(self, sym3, dumbbell_base):
        power = base_matrix_power(dumbbell_base, 3)
        assert "entries" not in vars(power)
        half = VoltageTable(*(np.array([x]) for x in (0, 0, sym3.identity, 0.5 + 0j)))
        message = r"^base matrix: coefficient \(0\.5\+0j\) of element 0 is not an integer within 1e-09$"
        with pytest.raises(NumericalError, match=message):
            BaseMatrix(group=sym3, k=1, voltage_table=half, directed=False)

    def test_nan_coefficient_fails_the_walk_count_check(self, sym3):
        nan = VoltageTable(*(np.array([x]) for x in (0, 0, sym3.identity, complex(np.nan))))
        message = r"^base matrix: coefficient \(nan\+0j\) of element 0 is not an integer"
        with pytest.raises(NumericalError, match=message):
            BaseMatrix(group=sym3, k=1, voltage_table=nan, directed=False)

    def test_power_below_one_rejected(self, dumbbell_base):
        with pytest.raises(ValueError):
            base_matrix_power(dumbbell_base, 0)

    def test_trace_counts_closed_walks(self, sym3, sym3_catalog):
        # Applying the trivial irrep to tr(B^l) counts closed walks of
        # length l in the underlying multigraph.
        rng = np.random.default_rng(22)
        vertices = ["a", "b", "c"]
        edges = [
            ("a", "b", int(rng.integers(6))),
            ("b", "c", int(rng.integers(6))),
            ("a", "a", int(rng.integers(6))),
            ("a", "c", int(rng.integers(6))),
        ]
        graph = VoltageGraph.build(sym3, vertices, edges)
        base = build_base_matrix(graph)
        plain = irrep_image(base, sym3_catalog[0]).matrix.real
        for power in (1, 2, 3, 4):
            walk_count = float(np.trace(np.linalg.matrix_power(plain, power)))
            traced = base_matrix_power(base, power).trace()
            total = sum(c.real for c in traced.coefficients.values())
            assert total == pytest.approx(walk_count)


class TestBaseMatrixGate:
    @pytest.mark.parametrize(
        "column, value, bound",
        [("u", -1, 0), ("u", 1, 0), ("v", -1, 0), ("v", 1, 0), ("g", -1, 5), ("g", 6, 5)],
    )
    def test_index_outside_its_range(self, sym3, column, value, bound):
        # Without the check, NumPy indexing would wrap g = -1 to element 5
        # and both lift routes would answer; g = 6 would die in an IndexError.
        row = {"u": 0, "v": 0, "g": sym3.identity, "c": 1}
        row[column] = value
        table = VoltageTable(*(np.array([row[name]]) for name in "uvgc"))
        message = rf"^base matrix: {column} = {value} in row 0 is outside 0\.\.{bound}$"
        with pytest.raises(ConsistencyError, match=message):
            BaseMatrix(group=sym3, k=1, voltage_table=table, directed=False)

    def test_columns_of_different_lengths(self, sym3):
        table = VoltageTable(np.array([0, 0]), np.array([0, 0]), np.array([0, 1]), np.array([1]))
        with pytest.raises(ConsistencyError, match="^base matrix: the table's columns differ"):
            BaseMatrix(group=sym3, k=1, voltage_table=table, directed=False)

    def test_counts_are_exact_read_only_ints(self, sym3):
        big = 2**60 + 1
        table = VoltageTable([0, 0], [0, 0], [sym3.identity, 1], [big, 3.0 + 0j])
        base = BaseMatrix(group=sym3, k=1, voltage_table=table, directed=False)
        assert base.voltage_table.c.tolist() == [big, 3]
        assert all(type(c) is int for c in base.voltage_table.c.tolist())
        assert all(not column.flags.writeable for column in base.voltage_table)
        assert [column.dtype for column in base.voltage_table[:3]] == [np.intp] * 3
        square = (base @ base).voltage_table
        assert square.c.tolist() == [big**2 + 9, 6 * big]
        assert base.trace().coefficients == {sym3.identity: complex(big), 1: 3 + 0j}


@st.composite
def _random_tables(draw):
    """Two base matrices over D5, C7 or S3 with k 1-4 and drawn integer tables.

    Coefficients are small integers, as walk counts are, or up to 2^40 in
    size, so that products and their sums pass 2^53.
    """
    group = draw(st.sampled_from(["dihedral 5", "cyclic 7", "dihedral 3"]))
    family, m = group.split()
    group = builtin_irreps(family, int(m)).group
    k = draw(st.integers(1, 4))
    coefficient = st.integers(-3, 3) | st.integers(-(2**40), 2**40)

    def matrix():
        cells = {}
        cell = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        for u, v in draw(st.lists(cell, max_size=2 * k * k)):
            g = draw(st.integers(0, group.order - 1))
            cells.setdefault((u, v), {})[g] = draw(coefficient)
        rows = [(u, v, g, c) for (u, v) in sorted(cells) for g, c in cells[u, v].items()]
        table = VoltageTable(*(zip(*rows) if rows else ((),) * 4))
        return BaseMatrix(group=group, k=k, voltage_table=table, directed=False)

    return matrix(), matrix()


def _assert_exact_trace(matrix, cells):
    trace = list(matrix.trace().coefficients.items())
    assert trace == reference_int_trace(matrix.k, cells)
    assert all(type(g) is int and type(c) is complex for g, c in trace)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_random_tables())
def test_table_product_and_trace_match_the_dict_loops_bit_for_bit(pair):
    left, right = pair
    product = left @ right
    # The product is formed from the tables; its grid is left unbuilt.
    assert "entries" not in vars(product)
    cells = reference_int_matmul(left.group, left.k, reference_cells(left), reference_cells(right))
    assert ordered_cells(reference_cells(product)) == ordered_cells(cells)
    assert all(type(c) is int for c in product.voltage_table.c.tolist())
    _assert_exact_trace(left, reference_cells(left))
    _assert_exact_trace(product, cells)


def _dihedral5_circulant16():
    """D5 voltages on the 16-vertex circulant with offsets 1, 2 and 5, drawn at seed 3."""
    group = builtin_irreps("dihedral", 5).group
    rng = np.random.default_rng(3)
    edges = [(i, (i + s) % 16, int(rng.integers(10))) for i in range(16) for s in (1, 2, 5)]
    return VoltageGraph.build(group, range(16), edges)


def test_walk_counts_past_two_to_the_53_stay_exact():
    # Counts pass 2^53 from B^22 on, where float counts would round a trace
    # coefficient and move the character route's power sums.
    graph = _dihedral5_circulant16()
    group = graph.group
    start = cells = reference_arc_cells(graph)
    for ell, power in enumerate(voltage._powers(build_base_matrix(graph), 32), 1):
        assert ordered_cells(reference_cells(power)) == ordered_cells(cells), ell
        _assert_exact_trace(power, cells)
        cells = reference_int_matmul(group, 16, cells, start)
    assert max(c for cell in cells.values() for c in cell.values()) > 2**53


def test_integer_coefficients_refuse_counts_a_float_cannot_hold():
    # B^23's trace holds counts past 2^53, such as 79260071946982706, that
    # come back rounded as complex numbers; reading them as integers refuses.
    trace = base_matrix_power(build_base_matrix(_dihedral5_circulant16()), 23).trace()
    assert max(abs(c) for c in trace.coefficients.values()) >= 2**53
    with pytest.raises(NumericalError, match=r"^walk counts: coefficient .* is 2\*\*53 or more"):
        trace.integer_coefficients()


@pytest.mark.parametrize("count, refused", [(2**53 - 1, False), (2**53, True), (-(2**53), True)])
def test_integer_counts_stop_at_two_to_the_53(count, refused):
    values = [1.0, float(count)]
    if refused:
        with pytest.raises(NumericalError, match=r"^base matrix: coefficient .* of element 4 "):
            voltage._integer_counts(values, [3, 4], "base matrix")
    else:
        assert voltage._integer_counts(values, [3, 4], "base matrix").tolist() == values


class TestLifts:
    def test_dumbbell_relative_lift(self, dumbbell, point_stabilizer_ctx):
        lift = build_lift(dumbbell, point_stabilizer_ctx)
        assert lift.size == 6
        assert lift.label_strings() == [
            "u@0", "u@1", "u@2", "v@0", "v@1", "v@2",
        ]
        expected = np.array(
            [
                [2, 0, 0, 1, 0, 0],
                [0, 0, 2, 0, 1, 0],
                [0, 2, 0, 0, 0, 1],
                [1, 0, 0, 0, 2, 0],
                [0, 1, 0, 2, 0, 0],
                [0, 0, 1, 0, 0, 2],
            ],
            dtype=np.int64,
        )
        assert np.array_equal(lift.adjacency, expected)

    def test_lift_rows_sum_to_degree(self, dumbbell, point_stabilizer_ctx):
        lift = build_lift(dumbbell, point_stabilizer_ctx)
        # Every base vertex has degree 3 (loop counts twice).
        assert np.all(lift.adjacency.sum(axis=1) == 3)
        assert np.array_equal(lift.adjacency, lift.adjacency.T)

    def test_regular_lift_size_and_degree(self, dumbbell, sym3, trivial_ctx):
        lift = build_lift(dumbbell, trivial_ctx)
        assert lift.size == 2 * sym3.order
        assert np.all(lift.adjacency.sum(axis=1) == 3)

    def test_full_subgroup_erases_voltages(self, dumbbell, full_ctx):
        lift = build_lift(dumbbell, full_ctx)
        assert np.array_equal(lift.adjacency, np.array([[2, 1], [1, 2]]))

    def test_involution_double_loop_over_c2(self):
        irr = builtin_irreps("cyclic", 2)
        group = irr.group
        graph = VoltageGraph.build(group, ["a"], [("a", "a", 1)])
        lift = build_lift(graph, right_cosets(group, frozenset({group.identity})))
        assert np.array_equal(lift.adjacency, np.array([[0, 2], [2, 0]]))

    def test_trivial_voltages_give_disjoint_copies(self, sym3):
        graph = VoltageGraph.build(
            sym3, ["a", "b"], [("a", "b", sym3.identity)]
        )
        ctx = right_cosets(sym3, frozenset({sym3.identity}))
        lift = build_lift(graph, ctx)
        base_adj = np.array([[0, 1], [1, 0]])
        assert np.array_equal(lift.adjacency, np.kron(base_adj, np.eye(6, dtype=np.int64)))

    def test_total_edge_count(self, dumbbell, point_stabilizer_ctx):
        lift = build_lift(dumbbell, point_stabilizer_ctx)
        # Each of the 6 arcs contributes one entry per coset.
        assert lift.adjacency.sum() == 6 * point_stabilizer_ctx.index_n

    def test_group_mismatch(self, dumbbell):
        other = builtin_irreps("cyclic", 2)
        ctx = right_cosets(other.group, frozenset({0}))
        with pytest.raises(ConsistencyError):
            build_lift(dumbbell, ctx)

    def test_lift_above_the_vertex_cap_is_refused_before_allocating(self):
        # S4 over its trivial subgroup on a 3000-cycle: 72,000 lift vertices.
        group = generate_group([parse_permutation(g, 4) for g in ("(1 2)", "(1 2 3 4)")])
        vertices = [str(v) for v in range(3000)]
        edges = [(vertices[v], vertices[(v + 1) % 3000], 1) for v in range(3000)]
        graph = VoltageGraph.build(group, vertices, edges)
        ctx = right_cosets(group, frozenset({group.identity}))
        message = (
            r"^build_lift: the lift has k\*n = 3000\*24 = 72000 vertices, above "
            r"MAX_LIFT_VERTICES = 8192, the most built as a dense matrix$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ConsistencyError, match=message):
                build_lift(graph, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_lift_at_the_vertex_cap_builds(self, monkeypatch, dumbbell, trivial_ctx):
        monkeypatch.setattr(voltage, "MAX_LIFT_VERTICES", 12)
        assert build_lift(dumbbell, trivial_ctx).size == 12
        monkeypatch.setattr(voltage, "MAX_LIFT_VERTICES", 11)
        with pytest.raises(ConsistencyError, match=r"k\*n = 2\*6 = 12 vertices"):
            build_lift(dumbbell, trivial_ctx)

    def test_json_export(self, dumbbell, point_stabilizer_ctx):
        lift = build_lift(dumbbell, point_stabilizer_ctx)
        doc = lift.to_json()
        assert doc["vertices"] == lift.label_strings()
        assert doc["adjacency"][0][0] == 2


LIFT_GROUPS = {
    "S4": (4, "(1 2)", "(1 2 3 4)"),
    "A5": (5, "(1 2 3)", "(1 2 3 4 5)"),
    "D6": None,
}


@functools.cache
def _lift_group(name):
    spec = LIFT_GROUPS[name]
    if spec is None:
        return builtin_irreps("dihedral", 6).group
    degree, *gens = spec
    return generate_group([parse_permutation(g, degree) for g in gens])


@pytest.mark.parametrize("name", sorted(LIFT_GROUPS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    directed=st.booleans(),
    subgroup=st.sampled_from(["trivial", "stabilizer", "cyclic"]),
)
def test_lift_bytes_match_the_per_arc_reference(name, data, directed, subgroup):
    group = _lift_group(name)
    if subgroup == "trivial":
        members = {group.identity}
    elif subgroup == "stabilizer":
        members = stabilizer(group, 1)
    else:
        members = subgroup_closure(group, [data.draw(st.integers(0, group.order - 1))])
    ctx = right_cosets(group, members)
    k = data.draw(st.integers(1, 4))
    arc = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(0, group.order - 1))
    edges = data.draw(st.lists(arc, min_size=1, max_size=8))
    # At least one loop and one pair of parallel edges.
    edges += [(0, 0, edges[0][2]), edges[0]]
    graph = VoltageGraph.build(group, range(k), edges, directed=directed)
    lift = build_lift(graph, ctx)
    expected = reference_build_lift(graph, ctx)
    assert lift.vertex_labels == expected.vertex_labels
    assert lift.adjacency.dtype == expected.adjacency.dtype
    assert lift.adjacency.shape == expected.adjacency.shape
    assert lift.adjacency.tobytes() == expected.adjacency.tobytes()


class TestLocalGroup:
    def test_dumbbell_transitive(self, dumbbell, sym3):
        assert local_group_is_transitive(dumbbell, sym3)

    def test_trivial_voltages_not_transitive(self, sym3):
        graph = VoltageGraph.build(
            sym3, ["a", "b"], [("a", "b", sym3.identity)]
        )
        assert not local_group_is_transitive(graph, sym3)

    def test_single_loop_three_cycle_not_transitive_on_three_points(self, sym3):
        rot = _elem(sym3, "(1 2 3)")
        graph = VoltageGraph.build(sym3, ["a"], [("a", "a", rot)])
        # The local group is the cyclic group of order 3, transitive on
        # {1, 2, 3}, so the stabilizer lift is connected.
        assert local_group_is_transitive(graph, sym3)

    def test_disconnected_base_rejected(self, sym3):
        graph = VoltageGraph.build(sym3, ["a", "b"], [("a", "a", 1)])
        with pytest.raises(ConsistencyError):
            local_group_is_transitive(graph, sym3)

    def test_connectivity_matches_explicit_lift(self, sym3):
        import scipy.sparse.csgraph as csgraph

        rng = np.random.default_rng(23)
        ctx = right_cosets(sym3, stabilizer(sym3, 1))
        for _ in range(20):
            edges = [
                ("a", "b", int(rng.integers(6))),
                ("b", "c", int(rng.integers(6))),
                ("c", "a", int(rng.integers(6))),
            ]
            graph = VoltageGraph.build(sym3, ["a", "b", "c"], edges)
            lift = build_lift(graph, ctx)
            parts = csgraph.connected_components(lift.adjacency, directed=False)[0]
            assert local_group_is_transitive(graph, sym3) == (parts == 1)

    def test_intransitive_group_connected_lift(self):
        # Over S3 acting on 4 points, Stab(1) has 3 cosets, the orbit of
        # point 1; the lift is connected though point 4 is never reached.
        group = generate_group(
            [parse_permutation(t, 4) for t in ("(1 2)", "(1 2 3)")], degree=4
        )
        loops = [("a", "a", _elem(group, "(1 2)")), ("a", "a", _elem(group, "(1 2 3)"))]
        graph = VoltageGraph.build(group, ["a"], loops)
        assert right_cosets(group, stabilizer(group, 1)).index_n == 3
        assert local_group_is_transitive(graph, group)

    @pytest.mark.parametrize(
        "degree,generators",
        [
            (4, ("(1 2)", "(3 4)")),
            (5, ("(1 2 3)", "(4 5)")),
            (5, ("(1 2)", "(1 2 3)")),
            (7, ("(1 2)(3 4)", "(5 6 7)")),
        ],
    )
    def test_intransitive_connectivity_matches_explicit_lift(self, degree, generators):
        import scipy.sparse.csgraph as csgraph

        group = generate_group(
            [parse_permutation(t, degree) for t in generators], degree=degree
        )
        ctx = right_cosets(group, stabilizer(group, 1))
        rng = np.random.default_rng(31)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            # A path keeps the base connected; up to two more edges, loops
            # included, join random vertices.
            ends = [(i, i + 1) for i in range(k - 1)]
            ends += [tuple(rng.integers(k, size=2)) for _ in range(int(rng.integers(3)))]
            edges = [(f"v{u}", f"v{v}", int(rng.integers(group.order))) for u, v in ends]
            graph = VoltageGraph.build(group, [f"v{i}" for i in range(k)], edges)
            lift = build_lift(graph, ctx)
            parts = csgraph.connected_components(lift.adjacency, directed=False)[0]
            assert local_group_is_transitive(graph, group) == (parts == 1)
