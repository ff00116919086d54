import dataclasses
import functools
import gc
import tracemalloc

import numpy as np
import pytest
from helpers import (
    reference_builtin_dihedral,
    reference_decompose_regular,
    reference_slice_residual,
    reference_trace_rank,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import liftspectra.irreps as irreps_module
import liftspectra.spectral as spectral
from liftspectra import (
    ConsistencyError,
    Irrep,
    IrrepSet,
    NumericalError,
    builtin_irreps,
    compute_irreps,
    conjugacy_classes,
    generate_group,
    parse_permutation,
    right_cosets,
    stabilizer,
    subgroup_closure,
    subgroup_sum,
    verify_character_orthogonality,
    verify_great_orthogonality,
    verify_rank_identity,
)

ROOT3 = np.sqrt(3.0)
GOLDEN = (1 + np.sqrt(5.0)) / 2

# Dimensions and characters at the class representatives, in the order that
# conjugacy_classes lists them (shown as comments), of the computed catalogs.
PINNED_TABLES = {
    "S4": (
        4,
        ["(1 2 3 4)", "(1 2)"],
        # ()  (3 4)  (2 3 4)  (1 2)(3 4)  (1 2 3 4)
        [
            [1, 1, 1, 1, 1],
            [1, -1, 1, 1, -1],
            [2, 0, -1, 2, 0],
            [3, 1, 0, -1, -1],
            [3, -1, 0, -1, 1],
        ],
    ),
    "A5": (
        5,
        ["(1 2 3 4 5)", "(1 2 3)"],
        # ()  (3 4 5)  (2 3)(4 5)  (1 2 3 4 5)  (1 2 3 5 4)
        [
            [1, 1, 1, 1, 1],
            [3, 0, -1, GOLDEN, 1 - GOLDEN],
            [3, 0, -1, 1 - GOLDEN, GOLDEN],
            [4, 1, 0, -1, -1],
            [5, -1, 1, 0, 0],
        ],
    ),
    "S5": (
        5,
        ["(1 2)", "(1 2 3 4 5)"],
        # ()  (4 5)  (3 4 5)  (2 3)(4 5)  (2 3 4 5)  (1 2)(3 4 5)  (1 2 3 4 5)
        [
            [1, 1, 1, 1, 1, 1, 1],
            [1, -1, 1, 1, -1, -1, 1],
            [4, 2, 1, 0, 0, -1, -1],
            [4, -2, 1, 0, 0, 1, -1],
            [5, 1, -1, 1, -1, 1, 0],
            [5, -1, -1, 1, 1, -1, 0],
            [6, 0, 0, -2, 0, 0, 1],
        ],
    ),
}


def _times_six_mod_43():
    """``x -> 6x mod 43`` in cycle notation, point ``p`` standing for residue ``p - 1``."""
    cycles, seen = [], {0}
    for x in range(1, 43):
        if x not in seen:
            orbit = [x, 6 * x % 43, 36 * x % 43]
            seen.update(orbit)
            cycles.append("(" + " ".join(str(y + 1) for y in orbit) + ")")
    return "".join(cycles)


# Groups given by generators, for the bit-for-bit check against the
# reference decomposition.  Orders 6, 8, 24, 60 and 120 are not multiples of
# the 64-row averaging block, so its short last block runs too.
REFERENCE_GROUPS = {
    "S3": (3, ["(1 2)", "(1 2 3)"]),
    "S4": (4, ["(1 2 3 4)", "(1 2)"]),
    "S4 swapped": (4, ["(1 2)", "(1 2 3 4)"]),
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "C6": (6, ["(1 2 3 4 5 6)"]),
    "D4": (4, ["(1 2 3 4)", "(2 4)"]),
    # The sub and residual slices hold 32 elements g; orders 33 and 129 leave
    # one in the last slice, and C43 x| C3 has three-dimensional irreps.
    "C33": (33, ["(" + " ".join(map(str, range(1, 34))) + ")"]),
    "C43 x| C3": (43, ["(" + " ".join(map(str, range(1, 44))) + ")", _times_six_mod_43()]),
}
# The tracemalloc peak of one compute_irreps call on S5: 4,979,904 B with the
# whole-matrix average and the einsum residual, plus 5 %.  A further
# 120 x 120 x 6 complex array (1.38 MB) would exceed it.
S5_PEAK_BOUND = 5_230_000
S5XC2 = (7, ["(1 2)", "(1 2 3 4 5)", "(6 7)"])
# The tracemalloc peak of one compute_irreps call on S5 x C2 (order 240) is
# 5,994,496 B with the sliced sub and residual, and 19,362,016 B with whole-g
# ones.  A further 240 x 240 x 6 complex array (5,529,600 B) would exceed it.
S5XC2_PEAK_BOUND = 8_000_000


def _sym4():
    return generate_group(
        [parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)", 4)]
    )


def _class_table(irrep_set):
    reps = [c.representative for c in conjugacy_classes(irrep_set.group)]
    return np.array([r.character[reps] for r in irrep_set])


def _merge_first_two_spans(monkeypatch, merge_on_call):
    """Record the span count of each ``_cluster_spans`` call, and make call
    ``n`` join its first two spans, as an eigenvalue coincidence would,
    whenever ``merge_on_call(n)`` holds."""
    original = irreps_module._cluster_spans
    calls = []

    def spans(eigenvalues, gap_tol):
        out = original(eigenvalues, gap_tol)
        calls.append(len(out))
        if merge_on_call(len(calls)):
            out = [(out[0][0], out[1][1])] + out[2:]
        return out

    monkeypatch.setattr(irreps_module, "_cluster_spans", spans)
    return calls


class TestSym3Catalog:
    def test_dims_and_layout(self, sym3_catalog):
        assert sym3_catalog.dims == (1, 1, 2)

    def test_character_table(self, sym3, sym3_catalog):
        classes = conjugacy_classes(sym3)
        reps = [c.representative for c in classes]
        table = np.array(
            [[r.character[g] for g in reps] for r in sym3_catalog], dtype=complex
        )
        expected = np.array(
            [[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex
        )
        assert np.max(np.abs(table - expected)) < 1e-12

    def test_two_dimensional_matrices_exact(self, sym3, sym3_catalog):
        plane = sym3_catalog[2]
        expected = {
            "()": np.eye(2),
            "(2 3)": 0.5 * np.array([[-1.0, -ROOT3], [-ROOT3, 1.0]]),
            "(1 2)": 0.5 * np.array([[-1.0, ROOT3], [ROOT3, 1.0]]),
            "(1 3)": np.array([[1.0, 0.0], [0.0, -1.0]]),
            "(1 2 3)": 0.5 * np.array([[-1.0, -ROOT3], [ROOT3, -1.0]]),
            "(1 3 2)": 0.5 * np.array([[-1.0, ROOT3], [-ROOT3, -1.0]]),
        }
        for g, perm in enumerate(sym3.elements):
            assert np.max(np.abs(plane.matrices[g] - expected[perm.cycle_string()])) < 1e-12

    def test_sign_character_matches_parity(self, sym3, sym3_catalog):
        sign = sym3_catalog[1]
        for g, perm in enumerate(sym3.elements):
            assert sign.character[g] == pytest.approx(perm.sign())

    def test_homomorphism(self, sym3, sym3_catalog):
        for irrep in sym3_catalog:
            for a in range(sym3.order):
                for b in range(sym3.order):
                    lhs = irrep.matrices[a] @ irrep.matrices[b]
                    rhs = irrep.matrices[sym3.mul(a, b)]
                    assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestBuiltinFamilies:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_cyclic(self, m):
        irr = builtin_irreps("cyclic", m)
        assert irr.group.order == m
        assert irr.dims == (1,) * m
        # The characters on a generator exhaust the m-th roots of unity.
        if m > 1:
            gen = irr.group.generators[0]
            values = sorted(
                (round(r.character[gen].real, 9), round(r.character[gen].imag, 9))
                for r in irr
            )
            roots = sorted(
                (round(np.cos(2 * np.pi * j / m), 9), round(np.sin(2 * np.pi * j / m), 9))
                for j in range(m)
            )
            assert values == roots

    @pytest.mark.parametrize(
        "m,order,dims",
        [
            (1, 2, (1, 1)),
            (2, 4, (1, 1, 1, 1)),
            (3, 6, (1, 1, 2)),
            (4, 8, (1, 1, 1, 1, 2)),
            (6, 12, (1, 1, 1, 1, 2, 2)),
        ],
    )
    def test_dihedral(self, m, order, dims):
        irr = builtin_irreps("dihedral", m)
        assert irr.group.order == order
        assert irr.dims == dims

    @pytest.mark.parametrize(
        "name,param",
        [("cyclic", 0), ("dihedral", 0), ("cyclic", -2)],
    )
    def test_bad_param(self, name, param):
        with pytest.raises(ConsistencyError):
            builtin_irreps(name, param)

    def test_unknown_family(self):
        with pytest.raises(ConsistencyError):
            builtin_irreps("quaternion", 2)

    def test_dihedral_bytes_match_the_per_irrep_walk(self):
        for m in range(1, 41):
            got = builtin_irreps("dihedral", m)
            want = reference_builtin_dihedral(m)
            assert got.dims == want.dims
            for a, b in zip(got, want):
                assert a.matrices.tobytes() == b.matrices.tobytes()
                assert a.character.tobytes() == b.character.tobytes()

    def test_generators_that_miss_the_group_are_refused(self):
        group = builtin_irreps("dihedral", 5).group
        rotations = dataclasses.replace(group, generators=group.generators[:1])
        images = np.ones((1, 1, 1, 1), dtype=complex)
        with pytest.raises(ConsistencyError, match="^stored generators do not generate the group$"):
            irreps_module._extend_from_generators(rotations, images)

    @pytest.mark.parametrize(
        "name,param",
        [
            ("cyclic", 2),
            ("cyclic", 5),
            ("cyclic", 6),
            ("dihedral", 4),
            ("dihedral", 6),
            ("sym3", 1),
        ],
    )
    def test_catalog_orthogonality(self, name, param):
        irr = builtin_irreps(name, param)
        assert verify_great_orthogonality(irr)
        assert verify_character_orthogonality(irr)
        assert sum(d * d for d in irr.dims) == irr.group.order


class TestComputedIrreps:
    def test_trivial_group(self):
        group = generate_group([], degree=3)
        irr = compute_irreps(group)
        assert irr.dims == (1,)
        assert np.allclose(irr[0].matrices, 1.0)

    def test_sym3_matches_catalog_characters(self, sym3_catalog):
        group = generate_group(
            [parse_permutation("(2 3)", 3), parse_permutation("(1 2)", 3)]
        )
        computed = compute_irreps(group, seed=0)
        assert computed.dims == (1, 1, 2)
        classes = conjugacy_classes(group)
        reps = [c.representative for c in classes]
        got = np.array([[r.character[g] for g in reps] for r in computed])
        want = np.array([[r.character[g] for g in reps] for r in sym3_catalog])
        assert np.max(np.abs(got - want)) < 1e-8

    def test_sym4(self):
        group = _sym4()
        irr = compute_irreps(group, seed=0)
        assert irr.dims == (1, 1, 2, 3, 3)
        assert sum(d * d for d in irr.dims) == 24
        assert verify_great_orthogonality(irr)
        assert verify_character_orthogonality(irr)

    def test_deterministic(self):
        group = _sym4()
        a = compute_irreps(group, seed=3)
        b = compute_irreps(group, seed=3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.matrices, rb.matrices)

    def test_abelian_group(self):
        group = generate_group([parse_permutation("(1 2 3 4 5 6)", 6)])
        irr = compute_irreps(group, seed=1)
        assert irr.dims == (1,) * 6
        assert verify_great_orthogonality(irr)

    def test_dihedral_matches_catalog(self):
        catalog = builtin_irreps("dihedral", 4)
        computed = compute_irreps(catalog.group, seed=0)
        assert computed.dims == catalog.dims
        classes = conjugacy_classes(catalog.group)
        reps = [c.representative for c in classes]
        got = np.array([[r.character[g] for g in reps] for r in computed])
        want = np.array([[r.character[g] for g in reps] for r in catalog])
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_pinned_dimensions_and_character_table(self, name):
        degree, gens, table = PINNED_TABLES[name]
        group = generate_group([parse_permutation(g, degree) for g in gens])
        irr = compute_irreps(group, seed=0)
        expected = np.array(table, dtype=complex)
        assert irr.dims == tuple(int(row[0]) for row in table)
        assert np.max(np.abs(_class_table(irr) - expected)) < 1e-8

    def test_reducible_cluster_is_retried(self, monkeypatch):
        calls = _merge_first_two_spans(monkeypatch, lambda n: n == 1)
        irr = compute_irreps(_sym4(), seed=0)
        assert len(calls) == 2
        assert irr.dims == (1, 1, 2, 3, 3)
        assert verify_great_orthogonality(irr)
        assert verify_character_orthogonality(irr)

    def test_reducible_cluster_on_every_attempt_raises(self, monkeypatch):
        calls = _merge_first_two_spans(monkeypatch, lambda n: True)
        with pytest.raises(NumericalError) as exc:
            compute_irreps(_sym4(), seed=0)
        assert len(calls) == irreps_module.MAX_RETRIES
        message = str(exc.value)
        for attempt in range(irreps_module.MAX_RETRIES):
            assert f"attempt {attempt}: irrep split: reducible eigenvalue cluster 0 " in message

    @pytest.mark.parametrize("seed", [0, 13])
    def test_many_clusters_split_on_the_first_attempt(self, monkeypatch, seed):
        # C2^7 has 128 one-dimensional irreps, so 128 eigenvalue clusters.
        # With a gap of 1e-7 * |G| these seeds merged two of them.
        group = generate_group(
            [parse_permutation(f"({2 * i + 1} {2 * i + 2})", 14) for i in range(7)]
        )
        calls = _merge_first_two_spans(monkeypatch, lambda n: False)
        irr = compute_irreps(group, seed=seed)
        assert calls == [128]
        assert irr.dims == (1,) * 128

    def test_order_above_limit_fails_fast(self):
        k = 1 + int(np.log2(irreps_module.MAX_COMPUTED_ORDER))
        group = generate_group(
            [parse_permutation(f"({2 * i + 1} {2 * i + 2})", 2 * k) for i in range(k)]
        )
        assert group.order == 2**k > irreps_module.MAX_COMPUTED_ORDER
        with pytest.raises(ConsistencyError) as exc:
            compute_irreps(group)
        message = str(exc.value)
        assert "compute_irreps" in message
        assert str(group.order) in message
        assert str(irreps_module.MAX_COMPUTED_ORDER) in message


class TestComputeIrrepsBits:
    @pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
    def test_catalog_bytes_match_reference_decomposition(self, monkeypatch, name):
        degree, gens = REFERENCE_GROUPS[name]
        group = generate_group([parse_permutation(g, degree) for g in gens])
        seeds = range(4)
        got = [compute_irreps(group, seed) for seed in seeds]
        monkeypatch.setattr(irreps_module, "_decompose_regular", reference_decompose_regular)
        for seed, irr in zip(seeds, got):
            want = compute_irreps(group, seed)
            assert irr.dims == want.dims
            for a, b in zip(irr, want):
                assert a.matrices.tobytes() == b.matrices.tobytes()
                assert a.character.tobytes() == b.character.tobytes()

    def test_s5_peak_memory(self):
        degree, gens = REFERENCE_GROUPS["S5"]
        perms = [parse_permutation(g, degree) for g in gens]
        # A first call pays the process's one-time allocations.
        compute_irreps(generate_group(perms), seed=0)
        group = generate_group(perms)
        tracemalloc.start()
        try:
            compute_irreps(group, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S5_PEAK_BOUND

    def test_s5xc2_catalog_bytes_match_reference_decomposition(self, monkeypatch):
        # Order 240 leaves 16 elements in the last slice; one seed keeps it fast.
        degree, gens = S5XC2
        group = generate_group([parse_permutation(g, degree) for g in gens])
        got = compute_irreps(group, seed=0)
        monkeypatch.setattr(irreps_module, "_decompose_regular", reference_decompose_regular)
        want = compute_irreps(group, seed=0)
        assert got.dims == want.dims
        for a, b in zip(got, want):
            assert a.matrices.tobytes() == b.matrices.tobytes()
            assert a.character.tobytes() == b.character.tobytes()

    def test_s5xc2_peak_memory(self):
        degree, gens = S5XC2
        perms = [parse_permutation(g, degree) for g in gens]
        compute_irreps(generate_group(perms), seed=0)
        group = generate_group(perms)
        tracemalloc.start()
        try:
            compute_irreps(group, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S5XC2_PEAK_BOUND

    @pytest.mark.parametrize("name", ["S3", "S4", "C33", "C43 x| C3"])
    def test_residual_message_matches_the_whole_g_residual(self, monkeypatch, name):
        """The sliced residual reports what one pass over every g gives.

        No residual is below a negative tolerance, so the first cluster fails
        and its message carries the residual of that cluster.
        """
        degree, gens = REFERENCE_GROUPS[name]
        group = generate_group([parse_permutation(g, degree) for g in gens])
        eigh = np.linalg.eigh
        seen = []

        def spy(matrix):
            seen.append(eigh(matrix))
            return seen[-1]

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(irreps_module, "DEFAULT_VERIFY_TOL", -1.0)
        rng = np.random.default_rng(7)
        with pytest.raises(NumericalError) as exc:
            irreps_module._decompose_regular(group, conjugacy_classes(group), rng)
        ((eigenvalues, eigenvectors),) = seen
        lo, hi = irreps_module._cluster_spans(eigenvalues, 1e-10 * group.order)[0]
        basis = eigenvectors[:, lo:hi]
        shifted = basis[group.mult_table.T]
        lifted = basis @ np.einsum("ai,gab->gib", basis.conj(), shifted) - shifted
        residual = np.max(np.abs(lifted))
        assert residual > 0
        assert str(exc.value) == (
            "irrep split: eigenvalue cluster 0 is not an invariant subspace "
            f"(residual {residual:.3e})"
        )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 31, 33, 97]),
    d=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_catalog_matches_the_strided_einsum(n, d, seed):
    """The ``(g, b, a)`` gather and its contraction give the bits of the
    ``(g, a, b)`` einsum on every 32-element slice, the short last one
    included, and on the whole catalog."""
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((n, d + 2)) + 1j * rng.standard_normal((n, d + 2))
    # A column slice, strided as an eigenvalue cluster's basis is.
    basis = wide[:, 1 : d + 1]
    table = np.stack([rng.permutation(n) for _ in range(n)], axis=1)
    sub = irreps_module._catalog(basis, table)
    assert sub.shape == (n, d, d)
    for g0 in range(0, n, 32):
        want = np.einsum("ai,gab->gib", basis.conj(), basis[table.T[g0 : g0 + 32]])
        assert sub[g0 : g0 + 32].tobytes() == want.tobytes()
    assert sub.tobytes() == np.einsum("ai,gab->gib", basis.conj(), basis[table.T]).tobytes()


def _group_of(degree, gens):
    return generate_group([parse_permutation(g, degree) for g in gens], degree=degree)


# The groups of the invariance certificate's property: the reference groups,
# S5 x C2, the trivial group (no generators), and C64.  Twisted by C64's
# generating character, a cluster's largest residual entry over the group is
# 2.55 times the residual norms at the identity and the generator added (1.83
# times on C33), so only there would a bound without the walk's depth pass a
# cluster that the whole-group residual fails.
CERTIFICATE_GROUPS = {
    **REFERENCE_GROUPS,
    "S5 x C2": S5XC2,
    "trivial": (1, []),
    "C64": (64, ["(" + " ".join(map(str, range(1, 65))) + ")"]),
}
TOL = irreps_module.DEFAULT_VERIFY_TOL
# Sizes of a planted fault, as the whole-group residual it aims at.  Half the
# tolerance is hit from a hair below and a hair above.
PLANT_SIZES = [0.0, 1e-13, TOL / 8, TOL / 2 * (1 - 1e-4), TOL / 2 * (1 + 1e-4), 4 * TOL, np.nan]


@functools.cache
def _true_clusters(name):
    """The group, its walk's depth, the eigenvector clusters of one averaged
    seed, and its nontrivial one-dimensional characters."""
    group = _group_of(*CERTIFICATE_GROUPS[name])
    n = group.order
    steps, depth = irreps_module._generator_walk(group)
    assert len(steps) == n - 1
    seed_matrix = irreps_module._random_hermitian(np.random.default_rng(0), n)
    eigenvalues, eigenvectors = np.linalg.eigh(
        irreps_module._average_conjugates(seed_matrix, group.mult_table)
    )
    clusters = [
        eigenvectors[:, lo:hi] for lo, hi in irreps_module._cluster_spans(eigenvalues, 1e-10 * n)
    ]
    characters = [r.matrices[:, 0, 0] for r in compute_irreps(group, 0) if r.dim == 1][1:]
    return group, depth, clusters, characters


def _whole_group_residual(basis, table):
    """``reference_slice_residual`` over every slice, and the catalog."""
    sub = irreps_module._catalog(basis, table)
    peaks = [
        reference_slice_residual(
            basis, sub[g0 : g0 + 32], basis[table.T[g0 : g0 + 32]].transpose(0, 2, 1)
        )
        for g0 in range(0, len(sub), 32)
    ]
    return np.max(peaks), sub


def _planted(basis, direction, size, table):
    """``basis`` turned by an angle toward ``direction`` (or scaled by a factor
    ``1 + angle`` when there is none), the angle chosen so that the
    whole-group residual is about ``size``."""

    def turn(angle):
        if direction is None:
            return basis * (1 + angle)
        return basis * np.cos(angle) + direction * np.sin(angle)

    if size == 0 or np.isnan(size):
        return turn(size)
    # The residual is linear in a small angle.
    probe, _ = _whole_group_residual(turn(TOL), table)
    return turn(TOL * size / probe)


@pytest.mark.parametrize("size", PLANT_SIZES, ids=lambda size: f"{size:.6g}")
@pytest.mark.parametrize("name", sorted(CERTIFICATE_GROUPS))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(pick=st.integers(0, 2**32 - 1))
def test_invariance_certificate_bounds_the_whole_group_residual(name, size, pick):
    """Whenever the generators certify a cluster, the exact residual over
    every slice is at most half the tolerance; and the cluster's decision
    and message are those of the whole-group residual.

    A true cluster's basis is turned out of its subspace toward each of:
    its twist by each nontrivial one-dimensional character (the copy of the
    irrep times that character, which only the generators that the
    character moves can see), a random direction, and none (a scaling, the
    only fault the trivial group admits).
    """
    group, depth, clusters, characters = _true_clusters(name)
    table = group.mult_table
    rng = np.random.default_rng(pick)
    idx = pick % len(clusters)
    basis = clusters[idx]
    n, d = basis.shape
    directions = [None]
    if n > d:
        noise = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        directions.append(noise / np.linalg.norm(noise, axis=0))
        directions += [character[:, None] * basis for character in characters]
    for direction in directions:
        if direction is not None:
            direction = direction - basis @ (basis.conj().T @ direction)
            if np.linalg.norm(direction) < 1e-3:
                continue
        planted = _planted(basis, direction, size, table)
        want, sub = _whole_group_residual(planted, table)
        if irreps_module._invariance_certificate(planted, sub, group, depth):
            assert want <= TOL / 2
        # Without a depth, every element's residual decides.
        for walk in (depth, None):
            if want <= TOL:
                got = irreps_module._invariant_catalog(planted, group, walk, idx)
                assert got.tobytes() == sub.tobytes()
            else:
                with pytest.raises(NumericalError) as exc:
                    irreps_module._invariant_catalog(planted, group, walk, idx)
                assert str(exc.value) == (
                    f"irrep split: eigenvalue cluster {idx} is not an invariant subspace "
                    f"(residual {want:.3e})"
                )


def test_generators_that_miss_an_element_leave_every_slice_to_the_residual(monkeypatch):
    group = _group_of(*S5XC2)
    partial = dataclasses.replace(group, generators=group.generators[:2])
    classes = conjugacy_classes(group)
    original = irreps_module._residual_stack
    chunks = []
    peaks = []

    def spy(basis, sub, table, elements):
        stack = original(basis, sub, table, elements)
        chunks.append(list(elements))
        peaks.append(np.max(np.abs(stack)))
        return stack

    monkeypatch.setattr(irreps_module, "_residual_stack", spy)
    got = irreps_module._decompose_regular(partial, classes, np.random.default_rng(3))
    n = group.order
    assert chunks == len(got) * [list(range(g0, min(g0 + 32, n))) for g0 in range(0, n, 32)]
    assert all(peak <= TOL for peak in peaks)
    want = reference_decompose_regular(group, classes, np.random.default_rng(3))
    assert [sub.tobytes() for sub in got] == [sub.tobytes() for sub in want]

    # And the residual decides: none passes a negative tolerance.
    monkeypatch.setattr(irreps_module, "DEFAULT_VERIFY_TOL", -1.0)
    message = r"^irrep split: eigenvalue cluster 0 is not an invariant subspace \(residual "
    with pytest.raises(NumericalError, match=message):
        irreps_module._decompose_regular(partial, classes, np.random.default_rng(3))


@pytest.mark.parametrize("seed", [0, 1])
def test_a_cluster_the_certificate_fails_is_decided_by_every_element(monkeypatch, seed):
    """C256, whose walk along its one generator has depth 255, fails the
    certificate on 2 of its 256 clusters at these seeds; every element's
    residual decides those, and the catalog is the reference's."""
    group = _group_of(256, ["(" + " ".join(map(str, range(1, 257))) + ")"])
    original = irreps_module._invariance_certificate
    verdicts = []

    def spy(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(irreps_module, "_invariance_certificate", spy)
    got = compute_irreps(group, seed)
    assert len(verdicts) == group.order
    assert verdicts.count(False) >= 1
    monkeypatch.setattr(irreps_module, "_decompose_regular", reference_decompose_regular)
    want = compute_irreps(group, seed)
    assert got.dims == want.dims
    for a, b in zip(got, want):
        assert a.matrices.tobytes() == b.matrices.tobytes()
        assert a.character.tobytes() == b.character.tobytes()


class _Averaged(Exception):
    pass


@pytest.mark.parametrize("name", sorted({**REFERENCE_GROUPS, "S5 x C2": S5XC2}))
def test_averaged_lower_triangle_matches_the_whole_matrix_average(monkeypatch, name):
    """``eigh`` reads the lower triangle alone: it is the whole-matrix
    average's, bit for bit, and so is ``eigh``'s output.  C33 and C43 x| C3
    have orders that are not multiples of the 64-row block."""
    group = _group_of(*REFERENCE_GROUPS.get(name, S5XC2))
    eigh = np.linalg.eigh
    captured = []

    def capture(matrix):
        captured.append(matrix)
        raise _Averaged

    monkeypatch.setattr(np.linalg, "eigh", capture)
    with pytest.raises(_Averaged):
        reference_decompose_regular(group, conjugacy_classes(group), np.random.default_rng(5))
    (want,) = captured
    seed_matrix = irreps_module._random_hermitian(np.random.default_rng(5), group.order)
    got = irreps_module._average_conjugates(seed_matrix, group.mult_table)
    lower = np.tril_indices(group.order)
    assert got[lower].tobytes() == want[lower].tobytes()
    for a, b in zip(eigh(got), eigh(want)):
        assert a.tobytes() == b.tobytes()


class TestComputeIrrepsStageNames:
    """Each of ``compute_irreps``' own failures names its stage."""

    @staticmethod
    def _split(group):
        rng = np.random.default_rng(3)
        return irreps_module._decompose_regular(group, conjugacy_classes(group), rng)

    def test_reducible_cluster(self, monkeypatch):
        _merge_first_two_spans(monkeypatch, lambda n: True)
        with pytest.raises(NumericalError, match=r"^irrep split: reducible eigenvalue cluster 0 "):
            self._split(_sym4())

    def test_non_invariant_subspace(self, monkeypatch):
        # No residual is below a negative tolerance, so the first cluster fails.
        monkeypatch.setattr(irreps_module, "DEFAULT_VERIFY_TOL", -1.0)
        message = r"^irrep split: eigenvalue cluster 0 is not an invariant subspace \(residual "
        with pytest.raises(NumericalError, match=message):
            self._split(_sym4())

    def test_nan_residual_fails_closed(self, monkeypatch):
        # A NaN in the catalog einsum's output is read by the residual alone;
        # the class characters are an einsum without ``out``.
        einsum = np.einsum

        def poisoned(*operands, out=None, **kwargs):
            result = einsum(*operands, out=out, **kwargs)
            if out is not None:
                out[0, 0, 0] = np.nan
            return result

        monkeypatch.setattr(np, "einsum", poisoned)
        message = r"^irrep split: eigenvalue cluster 0 is not an invariant subspace \(residual nan\)"
        with pytest.raises(NumericalError, match=message):
            self._split(_sym4())

    def test_nan_eigenvector_is_a_reducible_cluster(self, monkeypatch):
        # The first cluster is refused before any catalog slice is built.
        eigh = np.linalg.eigh

        def poisoned(matrix):
            eigenvalues, eigenvectors = eigh(matrix)
            eigenvectors[3, 0] = np.nan
            return eigenvalues, eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        monkeypatch.setattr(irreps_module, "_catalog", lambda *args: pytest.fail("built"))
        message = (
            r"^irrep split: reducible eigenvalue cluster 0 \(\d+-dimensional\): "
            r"character norm nan departs from 1$"
        )
        with pytest.raises(NumericalError, match=message):
            self._split(_sym4())

    def test_retry_history(self, monkeypatch):
        monkeypatch.setattr(irreps_module, "DEFAULT_VERIFY_TOL", -1.0)
        with pytest.raises(NumericalError) as exc:
            compute_irreps(_sym4(), seed=5)
        message = str(exc.value)
        prefix = "irrep retries: irreducible decomposition failed for every seed derived from 5: "
        assert message.startswith(prefix)
        attempts = message[len(prefix) :].split("; ")
        assert len(attempts) == irreps_module.MAX_RETRIES
        for attempt, text in enumerate(attempts):
            assert text.startswith(f"attempt {attempt}: irrep split: eigenvalue cluster 0 ")


class TestSubgroupSums:
    def test_point_stabilizer_images(self, sym3_catalog, point_stabilizer_ctx):
        sums = [subgroup_sum(r, point_stabilizer_ctx) for r in sym3_catalog]
        assert [s.rank for s in sums] == [1, 0, 1]
        assert np.allclose(sums[0].matrix, [[2.0]])
        assert np.allclose(sums[1].matrix, [[0.0]])
        expected = 0.5 * np.array([[1.0, -ROOT3], [-ROOT3, 3.0]])
        assert np.max(np.abs(sums[2].matrix - expected)) < 1e-12

    def test_trivial_subgroup_gives_identity(self, sym3_catalog, trivial_ctx):
        for irrep in sym3_catalog:
            image = subgroup_sum(irrep, trivial_ctx)
            assert image.rank == irrep.dim
            assert np.allclose(image.matrix, np.eye(irrep.dim))

    def test_full_group_kills_nontrivial(self, sym3, sym3_catalog, full_ctx):
        images = [subgroup_sum(r, full_ctx) for r in sym3_catalog]
        assert np.allclose(images[0].matrix, [[float(sym3.order)]])
        assert [s.rank for s in images] == [1, 0, 0]

    def test_scaled_projector_property(self):
        # rho(H) squared equals |H| rho(H); singular values are 0 or |H|.
        irr = builtin_irreps("dihedral", 6)
        group = irr.group
        rng = np.random.default_rng(15)
        for _ in range(8):
            members = subgroup_closure(group, [int(rng.integers(group.order))])
            ctx = right_cosets(group, members)
            size = len(members)
            for irrep in irr:
                image = subgroup_sum(irrep, ctx)
                assert np.max(
                    np.abs(image.matrix @ image.matrix - size * image.matrix)
                ) < 1e-9
                for sv in np.linalg.svd(image.matrix, compute_uv=False):
                    assert min(abs(sv), abs(sv - size)) < 1e-9

    def test_group_mismatch(self, point_stabilizer_ctx):
        other = builtin_irreps("cyclic", 3)
        with pytest.raises(ConsistencyError):
            subgroup_sum(other[0], point_stabilizer_ctx)

    def test_fractional_trace_names_the_irrep(self, sym3, sym3_catalog, point_stabilizer_ctx):
        plane = sym3_catalog[2]
        shrunk = Irrep(
            group=sym3, dim=2, matrices=0.5 * plane.matrices, character=0.5 * plane.character
        )
        message = (
            "rank identity: 2-dimensional irrep, tr P = 0.5+0j is not within 1e-08 of an integer"
        )
        with pytest.raises(NumericalError) as exc:
            subgroup_sum(shrunk, point_stabilizer_ctx)
        assert str(exc.value) == message
        with pytest.raises(NumericalError) as exc:
            reference_trace_rank(shrunk, point_stabilizer_ctx, "2-dimensional irrep")
        assert str(exc.value) == message


class TestRankIdentity:
    def test_sym3_point_stabilizer(self, sym3_catalog, point_stabilizer_ctx):
        assert verify_rank_identity(sym3_catalog, point_stabilizer_ctx)
        ranks = [subgroup_sum(r, point_stabilizer_ctx).rank for r in sym3_catalog]
        dims = sym3_catalog.dims
        assert sum(d * r for d, r in zip(dims, ranks)) == 3

    def test_cyclic6_half_subgroup(self):
        irr = builtin_irreps("cyclic", 6)
        group = irr.group
        half_turn = group.mul(group.generators[0], group.mul(group.generators[0], group.generators[0]))
        ctx = right_cosets(group, subgroup_closure(group, [half_turn]))
        assert ctx.index_n == 3
        ranks = [subgroup_sum(r, ctx).rank for r in irr]
        assert ranks == [1, 0, 0, 1, 1, 0]
        assert verify_rank_identity(irr, ctx)

    def test_extremes(self, sym3, sym3_catalog, trivial_ctx, full_ctx):
        assert verify_rank_identity(sym3_catalog, trivial_ctx)
        assert verify_rank_identity(sym3_catalog, full_ctx)

    def test_holds_across_random_subgroups(self):
        irr = compute_irreps(_sym4(), seed=5)
        group = irr.group
        rng = np.random.default_rng(16)
        for _ in range(12):
            gens = [int(rng.integers(group.order)) for _ in range(2)]
            ctx = right_cosets(group, subgroup_closure(group, gens))
            assert verify_rank_identity(irr, ctx)


RANK_GROUPS = {
    "S4": (4, ["(1 2 3 4)", "(1 2)"]),
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
}


@functools.cache
def _rank_catalog(name):
    if name == "D6":
        return builtin_irreps("dihedral", 6)
    degree, gens = RANK_GROUPS[name]
    return compute_irreps(generate_group([parse_permutation(g, degree) for g in gens]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["D6", *RANK_GROUPS]), data=st.data())
def test_ranks_match_the_per_irrep_trace_rule(name, data):
    irrep_set = _rank_catalog(name)
    group = irrep_set.group
    kind = data.draw(st.sampled_from(["trivial", "stabilizer", "cyclic"]))
    if kind == "trivial":
        members = frozenset({group.identity})
    elif kind == "stabilizer":
        members = stabilizer(group, data.draw(st.integers(1, group.degree)))
    else:
        members = subgroup_closure(group, [data.draw(st.integers(0, group.order - 1))])
    ctx = right_cosets(group, members)
    want = [reference_trace_rank(r, ctx, f"irrep {i}") for i, r in enumerate(irrep_set)]
    assert irreps_module.subgroup_ranks(irrep_set, ctx) == want
    assert [subgroup_sum(r, ctx).rank for r in irrep_set] == want


def test_checked_ranks_are_kept_per_context_and_go_with_it(sym3, sym3_catalog, dumbbell_base):
    ctx = right_cosets(sym3, stabilizer(sym3, 1))
    kept = sym3_catalog.image_sources
    spectral.lift_spectrum(dumbbell_base, sym3_catalog, ctx)
    source = kept[ctx]
    assert source.ranks == (1, 0, 1)
    assert spectral._image_source(sym3_catalog, ctx) is source
    # Each call gets its own list; the kept tuple does not change.
    ranks = irreps_module.subgroup_ranks(sym3_catalog, ctx)
    assert ranks == [1, 0, 1]
    ranks.append(7)
    assert irreps_module.subgroup_ranks(sym3_catalog, ctx) == [1, 0, 1]
    assert source.ranks == (1, 0, 1)
    del source
    before = len(kept)
    del ctx
    gc.collect()
    assert len(kept) == before - 1


def test_failing_ranks_are_not_kept(sym3, sym3_catalog, dumbbell_base):
    partial = IrrepSet(group=sym3, irreps=sym3_catalog.irreps[:2])
    ctx = right_cosets(sym3, stabilizer(sym3, 1))
    for route in (spectral.lift_spectrum, spectral.lift_eigenvectors) * 2:
        with pytest.raises(NumericalError, match="^rank identity: dimension-weighted ranks"):
            route(dumbbell_base, partial, ctx)
        assert ctx not in partial.image_sources


def test_nan_character_fails_the_rank_check(sym3, sym3_catalog):
    sign = sym3_catalog[1]
    poisoned = Irrep(
        group=sym3, dim=1, matrices=sign.matrices, character=np.full_like(sign.character, np.nan)
    )
    irrep_set = IrrepSet(group=sym3, irreps=(sym3_catalog[0], poisoned, sym3_catalog[2]))
    ctx = right_cosets(sym3, stabilizer(sym3, 1))
    with pytest.raises(NumericalError, match=r"^rank identity: irrep 1, tr P = nan"):
        irreps_module.subgroup_ranks(irrep_set, ctx)


class TestOrthogonalityChecks:
    def test_corrupted_set_fails(self, sym3, sym3_catalog):
        matrices = sym3_catalog[2].matrices.copy()
        matrices[1, 0, 0] += 0.1
        broken = Irrep(
            group=sym3,
            dim=2,
            matrices=matrices,
            character=np.einsum("gii->g", matrices),
        )
        bad_set = IrrepSet(
            group=sym3, irreps=(sym3_catalog[0], sym3_catalog[1], broken)
        )
        assert not verify_great_orthogonality(bad_set)

    def test_character_orthogonality_needs_all_irreps(self, sym3, sym3_catalog):
        partial = IrrepSet(group=sym3, irreps=(sym3_catalog[0], sym3_catalog[1]))
        assert not verify_character_orthogonality(partial)


def _broken_catalog(sym3, catalog, flaw):
    """The Sym(3) catalog with one flaw that ``_validate_irrep_set`` must name."""
    trivial, sign, plane = catalog
    eye = np.eye(2)

    def plane_from(matrices):
        return Irrep(sym3, 2, matrices, np.einsum("gii->g", matrices))

    if flaw == "squared dimensions":
        return IrrepSet(sym3, (trivial, sign))
    if flaw == "two listed irreps are equivalent":
        return IrrepSet(sym3, (trivial, trivial, plane))
    matrices = plane.matrices.copy()
    if flaw == "matrix stack has the wrong shape":
        matrices = matrices[:-1]
    elif flaw == "identity element":
        matrices[sym3.identity] = -eye
    elif flaw == "not unitary":
        matrices = 2.0 * matrices
        matrices[sym3.identity] = eye
    elif flaw == "not a homomorphism":
        # Swap the images of a transposition and a 3-cycle.
        a = int(np.flatnonzero(np.isclose(plane.character, 0.0))[0])
        b = int(np.flatnonzero(np.isclose(plane.character, -1.0))[0])
        matrices[[a, b]] = matrices[[b, a]]
    elif flaw == "non-finite entries":
        # Every comparison with a NaN is false, so only an explicit test sees it.
        matrices[3, 0, 0] = np.nan
    elif flaw == "character norm":
        # trivial + sign as one unitary two-dimensional representation.
        matrices = np.zeros_like(matrices)
        matrices[:, 0, 0] = 1.0
        matrices[:, 1, 1] = sign.matrices[:, 0, 0]
    return IrrepSet(sym3, (trivial, sign, plane_from(matrices)))


@pytest.mark.parametrize(
    "flaw",
    [
        "squared dimensions",
        "matrix stack has the wrong shape",
        "identity element",
        "not unitary",
        "not a homomorphism",
        "non-finite entries",
        "character norm",
        "two listed irreps are equivalent",
    ],
)
def test_irrep_check_messages_name_the_stage(sym3, sym3_catalog, flaw):
    broken = _broken_catalog(sym3, sym3_catalog, flaw)
    with pytest.raises(NumericalError, match=f"^irrep check: .*{flaw}"):
        irreps_module._validate_irrep_set(broken)


@pytest.mark.parametrize("flaw", ["not unitary", "not a homomorphism"])
def test_irrep_check_catches_a_flaw_at_one_element_near_the_tolerance(
    sym3, sym3_catalog, flaw
):
    """The whole-stack products see a flaw of about twice the tolerance at a
    single element, and pass one of an eighth of it."""
    tol = irreps_module.DEFAULT_VERIFY_TOL
    trivial, sign, plane = sym3_catalog
    # A 3-cycle: no generator, so every product checked sees the flaw once.
    at = int(np.flatnonzero(np.isclose(plane.character, -1.0))[0])

    def flawed(size):
        matrices = plane.matrices.copy()
        # A scale breaks unitarity by about 2 * size; a phase keeps it and
        # moves each product that has ``at`` on one side by up to 2 * size.
        if flaw == "not unitary":
            matrices[at] *= 1 + size
        else:
            matrices[at] *= np.exp(2j * size)
        plane_irrep = Irrep(sym3, 2, matrices, np.einsum("gii->g", matrices))
        return IrrepSet(sym3, (trivial, sign, plane_irrep))

    with pytest.raises(NumericalError, match=f"^irrep check: .*{flaw}"):
        irreps_module._validate_irrep_set(flawed(tol))
    irreps_module._validate_irrep_set(flawed(tol / 8))
