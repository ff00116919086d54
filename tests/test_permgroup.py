import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftspectra import (
    ConsistencyError,
    ParseError,
    Permutation,
    builtin_irreps,
    conjugacy_classes,
    generate_group,
    is_normal,
    is_regular_action,
    is_transitive,
    parse_permutation,
    right_cosets,
    stabilizer,
    subgroup_closure,
)

from helpers import (
    reference_conjugacy_classes,
    reference_is_normal,
    reference_right_cosets,
)


class TestParsePermutation:
    def test_transposition(self):
        p = parse_permutation("(2 3)", 3)
        assert p.images == (1, 3, 2)

    def test_identity_empty_parens(self):
        p = parse_permutation("()", 4)
        assert p.is_identity()
        assert p.images == (1, 2, 3, 4)

    def test_three_cycle(self):
        p = parse_permutation("(1 2 3)", 3)
        assert p.images == (2, 3, 1)

    def test_disjoint_cycles(self):
        p = parse_permutation("(1 2)(3 4 5)", 5)
        assert p.images == (2, 1, 4, 5, 3)

    def test_fixed_points_allowed_implicitly(self):
        p = parse_permutation("(1 3)", 4)
        assert p.images == (3, 2, 1, 4)

    @pytest.mark.parametrize(
        "text",
        [
            "(1 2",  # unbalanced
            "1 2",  # missing parens
            "",  # empty
            "(1 1)",  # repeat within a cycle
            "(1 2) junk",  # trailing garbage
            "(a b)",  # non-integer points
            "(0 1)",  # out of range low
            "(1 7)",  # out of range high (degree 3)
            "(3)",  # singleton cycle
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_permutation(text, 3)

    def test_repeat_across_cycles_rejected(self):
        # The grammar is disjoint cycle notation: overlapping cycles are a
        # parse error, not a composition.
        with pytest.raises(ParseError):
            parse_permutation("(1 2)(2 3)", 3)
        with pytest.raises(ParseError):
            parse_permutation("(1 2)(1 3)", 3)

    def test_degree_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_permutation("()", 0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            degree = int(rng.integers(1, 9))
            images = tuple(int(x) + 1 for x in rng.permutation(degree))
            p = Permutation(degree, images)
            assert parse_permutation(p.cycle_string(), degree) == p


class TestPermutationAlgebra:
    def test_composition_is_left_to_right(self):
        a = parse_permutation("(1 2)", 3)
        b = parse_permutation("(2 3)", 3)
        # (point)(a*b) = ((point)a)b, so 1 -> 2 -> 3.
        assert (a * b).apply(1) == 3
        assert (a * b).images == (3, 1, 2)
        assert (b * a).images == (2, 3, 1)

    def test_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            degree = int(rng.integers(1, 8))
            images = tuple(int(x) + 1 for x in rng.permutation(degree))
            p = Permutation(degree, images)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_associativity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            perms = [
                Permutation(6, tuple(int(x) + 1 for x in rng.permutation(6)))
                for _ in range(3)
            ]
            a, b, c = perms
            assert (a * b) * c == a * (b * c)

    def test_sign(self):
        assert parse_permutation("()", 3).sign() == 1
        assert parse_permutation("(1 2)", 3).sign() == -1
        assert parse_permutation("(1 2 3)", 3).sign() == 1
        assert parse_permutation("(1 2)(3 4)", 4).sign() == 1
        assert parse_permutation("(1 2 3 4)", 4).sign() == -1

    def test_cycle_string_canonical(self):
        assert parse_permutation("(2 3)", 3).cycle_string() == "(2 3)"
        assert parse_permutation("()", 3).cycle_string() == "()"
        assert parse_permutation("(3 2 1)", 3).cycle_string() == "(1 3 2)"

    def test_degree_mismatch_rejected(self):
        a = parse_permutation("(1 2)", 3)
        b = parse_permutation("(1 2)", 4)
        with pytest.raises(ConsistencyError):
            a * b  # noqa: B018


class TestGenerateGroup:
    def test_sym3(self):
        gens = [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        group = generate_group(gens)
        assert group.order == 6
        assert group.elements[0].is_identity()
        strings = [p.cycle_string() for p in group.elements]
        assert strings == ["()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"]

    def test_canonical_order_is_lex_on_images(self):
        group = generate_group([parse_permutation("(1 2 3 4)", 4)])
        images = [p.images for p in group.elements]
        assert images == sorted(images)
        assert group.order == 4

    def test_multiplication_table(self):
        group = generate_group(
            [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        )
        for a in range(group.order):
            for b in range(group.order):
                product = group.elements[a] * group.elements[b]
                assert group.elements[group.mul(a, b)] == product

    def test_inverse_table(self):
        group = generate_group([parse_permutation("(1 2 3 4 5)", 5)])
        for a in range(group.order):
            assert group.mul(a, group.inv(a)) == group.identity

    def test_empty_generators_need_degree(self):
        group = generate_group([], degree=5)
        assert group.order == 1
        assert group.degree == 5
        with pytest.raises(ConsistencyError):
            generate_group([])

    def test_order_cap_enforced(self):
        gens = [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        with pytest.raises(ConsistencyError):
            generate_group(gens, order_cap=5)

    def test_mixed_degrees_rejected(self):
        gens = [parse_permutation("(1 2)", 3), parse_permutation("(1 2)", 4)]
        with pytest.raises(ConsistencyError):
            generate_group(gens)

    def test_deterministic(self):
        gens = [parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)", 4)]
        g1 = generate_group(gens)
        g2 = generate_group(gens)
        assert g1.elements == g2.elements
        assert np.array_equal(g1.mult_table, g2.mult_table)

    def test_index_of(self):
        group = generate_group(
            [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        )
        for i, p in enumerate(group.elements):
            assert group.index_of(p) == i
        with pytest.raises(ConsistencyError):
            group.index_of(parse_permutation("(1 2)", 4))


class TestSubgroupsAndCosets:
    def test_stabilizer_sym3(self, sym3):
        stab = stabilizer(sym3, 1)
        strings = sorted(sym3.elements[x].cycle_string() for x in stab)
        assert strings == ["()", "(2 3)"]

    def test_stabilizer_point_out_of_range(self, sym3):
        with pytest.raises(ConsistencyError):
            stabilizer(sym3, 0)
        with pytest.raises(ConsistencyError):
            stabilizer(sym3, 4)

    def test_subgroup_closure(self, sym3):
        rot = sym3.index_of(parse_permutation("(1 2 3)", 3))
        closure = subgroup_closure(sym3, [rot])
        assert len(closure) == 3
        assert sym3.identity in closure

    def test_point_stabilizer_cosets(self, sym3, point_stabilizer_ctx):
        ctx = point_stabilizer_ctx
        assert ctx.index_n == 3
        as_strings = [
            sorted(sym3.elements[x].cycle_string() for x in coset)
            for coset in ctx.cosets
        ]
        # Note "(1 2 3)" sorts before "(1 2)": space precedes ")" in ASCII.
        assert as_strings == [
            ["()", "(2 3)"],
            ["(1 2 3)", "(1 2)"],
            ["(1 3 2)", "(1 3)"],
        ]
        for x in range(sym3.order):
            assert x in ctx.cosets[ctx.coset_of[x]]

    def test_trivial_subgroup_cosets_in_canonical_order(self, sym3, trivial_ctx):
        assert trivial_ctx.index_n == 6
        assert [min(c) for c in trivial_ctx.cosets] == list(range(6))

    def test_full_subgroup_single_coset(self, full_ctx):
        assert full_ctx.index_n == 1
        assert full_ctx.representatives == (0,)

    def test_rejects_non_subgroup(self, sym3):
        rot = sym3.index_of(parse_permutation("(1 2 3)", 3))
        with pytest.raises(ConsistencyError):
            right_cosets(sym3, frozenset({sym3.identity, rot}))
        with pytest.raises(ConsistencyError):
            right_cosets(sym3, frozenset({rot}))

    @pytest.mark.parametrize("outside", [-1, 6])
    def test_rejects_indices_outside_the_group(self, sym3, outside):
        # -1 would otherwise index the last element, a reflection in Sym(3).
        with pytest.raises(ConsistencyError, match="indices 0..5"):
            right_cosets(sym3, frozenset({sym3.identity, outside}))

    def test_unreached_coset_refused(self, sym3):
        # generate_group's generators always generate the group; one that
        # reaches only part of it must not leave elements without a label.
        rot = sym3.index_of(parse_permutation("(1 2 3)", 3))
        partial = dataclasses.replace(sym3, generators=(rot,))
        with pytest.raises(ConsistencyError, match="do not reach every coset"):
            right_cosets(partial, frozenset({partial.identity}))

    def test_action_on_cosets(self, sym3, point_stabilizer_ctx):
        ctx = point_stabilizer_ctx
        # Right multiplication by a generator permutes coset labels; the
        # action must be a genuine permutation and respect coset membership.
        for g in range(sym3.order):
            action = ctx.coset_action[g]
            assert sorted(action) == list(range(ctx.index_n))
            for j, rep in enumerate(ctx.representatives):
                assert ctx.coset_of[sym3.mul(rep, g)] == action[j]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        spec=st.sampled_from([(4, "(1 2 3 4)", "(1 2)"), (5, "(1 2 3)", "(3 4 5)")]),
    )
    def test_coset_action_table_rows(self, data, spec):
        # Sym(4) and Alt(5), each over random subgroups of up to three generators.
        degree, *gens = spec
        group = generate_group([parse_permutation(g, degree) for g in gens])
        element = st.integers(0, group.order - 1)
        members = subgroup_closure(group, data.draw(st.lists(element, max_size=3)))
        ctx = right_cosets(group, members)
        table = ctx.coset_action
        assert table.shape == (group.order, ctx.index_n)
        assert not table.flags.writeable
        assert ctx.coset_action is table
        reps = np.asarray(ctx.representatives, dtype=np.int64)
        for g in range(group.order):
            expected = ctx.coset_of[group.mult_table[reps, g]]
            assert np.array_equal(table[g], expected)

    def test_cosets_partition_random_groups(self):
        rng = np.random.default_rng(14)
        group = generate_group(
            [parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)", 4)]
        )
        for _ in range(10):
            seed_elems = [int(rng.integers(group.order)) for _ in range(2)]
            members = subgroup_closure(group, seed_elems)
            ctx = right_cosets(group, members)
            assert sum(len(c) for c in ctx.cosets) == group.order
            assert len(members) * ctx.index_n == group.order


class TestConjugacyClasses:
    def test_sym3_classes(self, sym3):
        classes = conjugacy_classes(sym3)
        data = [
            (sym3.elements[c.representative].cycle_string(), c.size) for c in classes
        ]
        assert data == [("()", 1), ("(2 3)", 3), ("(1 2 3)", 2)]

    def test_cyclic_group_all_singletons(self):
        group = generate_group([parse_permutation("(1 2 3 4)", 4)])
        classes = conjugacy_classes(group)
        assert [c.size for c in classes] == [1, 1, 1, 1]

    def test_sizes_sum_to_order(self):
        group = generate_group(
            [parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)", 4)]
        )
        classes = conjugacy_classes(group)
        assert sum(c.size for c in classes) == group.order
        assert len(classes) == 5  # Sym(4)


class TestPredicates:
    def test_transitive(self, sym3):
        assert is_transitive(sym3)
        klein_half = generate_group([parse_permutation("(1 2)(3 4)", 4)])
        assert not is_transitive(klein_half)

    def test_regular_action(self, sym3):
        assert not is_regular_action(sym3)
        cyclic = generate_group([parse_permutation("(1 2 3 4)", 4)])
        assert is_regular_action(cyclic)

    def test_normality(self, sym3, point_stabilizer_ctx, trivial_ctx, full_ctx):
        assert not is_normal(point_stabilizer_ctx)
        assert is_normal(trivial_ctx)
        assert is_normal(full_ctx)
        rot = sym3.index_of(parse_permutation("(1 2 3)", 3))
        alt = right_cosets(sym3, subgroup_closure(sym3, [rot]))
        assert is_normal(alt)


REFERENCE_GROUPS = {
    "S4": (4, "(1 2)", "(1 2 3 4)"),
    "A5": (5, "(1 2 3)", "(1 2 3 4 5)"),
    "S5": (5, "(1 2)", "(1 2 3 4 5)"),
    "S5xC2": (7, "(1 2)", "(1 2 3 4 5)", "(6 7)"),
    "D10": None,
}


@functools.cache
def _reference_group(name):
    spec = REFERENCE_GROUPS[name]
    if spec is None:
        return builtin_irreps("dihedral", 10).group
    degree, *gens = spec
    return generate_group([parse_permutation(g, degree) for g in gens])


def _outcome(build, group, members):
    try:
        return build(group, members)
    except ConsistencyError:
        return ConsistencyError


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), closed=st.booleans())
def test_table_expressions_match_the_loops(name, data, closed):
    # Random subgroups, and random sets that are mostly not subgroups, against
    # the per-element loops the table expressions replaced.
    group = _reference_group(name)
    elements = st.lists(st.integers(0, group.order - 1), max_size=4 if closed else 6)
    drawn = data.draw(elements)
    if closed:
        members = subgroup_closure(group, drawn)
    else:
        members = frozenset(drawn) | data.draw(st.sampled_from([frozenset(), frozenset({0})]))
    ctx = _outcome(right_cosets, group, members)
    expected = _outcome(reference_right_cosets, group, members)
    if expected is ConsistencyError:
        assert ctx is ConsistencyError
    else:
        assert ctx is not ConsistencyError
        assert np.array_equal(ctx.coset_of, expected.coset_of)
        assert ctx.cosets == expected.cosets
        assert ctx.representatives == expected.representatives
        assert ctx.subgroup_elements == expected.subgroup_elements
        assert is_normal(ctx) is reference_is_normal(expected)
    classes = [(c.representative, c.members) for c in conjugacy_classes(group)]
    assert classes == [(c.representative, c.members) for c in reference_conjugacy_classes(group)]
