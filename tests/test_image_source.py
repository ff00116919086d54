"""The image source behind both lift routes, and a second source that needs no group.

``lift_spectrum`` and ``lift_eigenvectors`` read an irrep set over a
subgroup only through one cached source per pair.  ``PhaseSource`` gives the
irreps of a cyclic group C_m by integer phases instead, with no
``FiniteGroup`` and no ``Irrep``, and the spectrum core runs on it unchanged.
"""

import json
import types

import numpy as np
import pytest

import liftspectra.spectral as spectral
from liftspectra import (
    VoltageGraph,
    build_base_matrix,
    builtin_irreps,
    compute_irreps,
    generate_group,
    lift_eigenvectors,
    lift_spectrum,
    parse_permutation,
    right_cosets,
    stabilizer,
    subgroup_closure,
)
from liftspectra.spectral import DEFAULT_MATCH_TOL
from liftspectra.voltage import VoltageTable


class PhaseSource:
    """The regular lift over C_m: irrep ``j`` sends the voltage ``a`` to ``exp(2 pi i j a / m)``.

    Each phase ``j * a`` is reduced to an integer in ``(-m/2, m/2]`` first,
    so the phase of ``-a`` is the exact conjugate of the phase of ``a`` and
    every image of an undirected base is Hermitian.
    """

    def __init__(self, m):
        self.m = m
        self.n = m
        self.dims = (1,) * m
        self.ranks = (1,) * m

    def images(self, base, indices):
        table = base.voltage_table
        turns = np.outer(indices, table.g) % self.m
        turns[2 * turns > self.m] -= self.m
        terms = table.c * np.exp(2j * np.pi * turns / self.m)
        stack = np.zeros((len(indices), base.k, base.k), dtype=complex)
        np.add.at(stack, (slice(None), table.u, table.v), terms)
        return stack


def random_edges(rng, k, order):
    """Undirected edges ``(u, v, a)`` on ``k`` vertices, up to two per pair, ``0 <= a < order``."""
    return [
        (u, v, int(rng.integers(order)))
        for u in range(k)
        for v in range(u, k)
        for _ in range(int(rng.integers(0, 3)))
    ]


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_the_phase_source_runs_the_spectrum_core_without_a_group(m):
    irrep_set = builtin_irreps("cyclic", m)
    group = irrep_set.group
    # An element's integer voltage is how far it shifts the point 1.
    element = {p.images[0] - 1: idx for idx, p in enumerate(group.elements)}
    ctx = right_cosets(group, frozenset({group.identity}))
    rng = np.random.default_rng(100 + m)
    for _ in range(6):
        k = int(rng.integers(1, 6))
        edges = random_edges(rng, k, m)
        graph = VoltageGraph.build(group, range(k), [(u, v, element[a]) for u, v, a in edges])
        want = lift_spectrum(build_base_matrix(graph), irrep_set, ctx)

        # Both arcs of every edge, the reverse one carrying -a; no group anywhere.
        arcs = [(u, v, a) for u, v, a in edges] + [(v, u, -a % m) for u, v, a in edges]
        u, v, g = np.array(arcs, dtype=np.intp).reshape(-1, 3).T
        table = VoltageTable(u, v, g, np.ones(len(arcs), dtype=np.int64))
        base = types.SimpleNamespace(k=k, voltage_table=table)
        got = spectral._lift_spectrum(base, PhaseSource(m), DEFAULT_MATCH_TOL)

        assert got.total == want.total == k * m
        assert got.counts.tolist() == want.counts.tolist()
        assert np.abs(got.values - want.values).max() <= DEFAULT_MATCH_TOL


def _s4_catalog():
    group = generate_group([parse_permutation(g, 4) for g in ("(1 2 3 4)", "(1 2)")])
    return compute_irreps(group, seed=0)


@pytest.mark.parametrize("name", ["sym3", "S4"])
def test_the_spectrum_route_never_builds_the_eigenvector_half(monkeypatch, name):
    irrep_set = builtin_irreps("sym3") if name == "sym3" else _s4_catalog()
    group = irrep_set.group
    rng = np.random.default_rng(7)
    base = build_base_matrix(VoltageGraph.build(group, range(3), random_edges(rng, 3, group.order)))
    kinds = [
        frozenset({group.identity}),
        stabilizer(group, 1),
        frozenset(range(group.order)),
        subgroup_closure(group, [int(rng.integers(group.order))]),
    ]
    want = [
        json.dumps(lift_spectrum(base, irrep_set, right_cosets(group, members)).to_json())
        for members in kinds
    ]

    def refuse(*args):
        raise AssertionError("the spectrum route built the eigenvector half")

    monkeypatch.setattr(spectral, "_coset_sums", refuse)
    monkeypatch.setattr(spectral, "_select_rows", refuse)
    contexts = [right_cosets(group, members) for members in kinds]
    for ctx, expected in zip(contexts, want):
        assert json.dumps(lift_spectrum(base, irrep_set, ctx).to_json()) == expected
        assert irrep_set.image_sources[ctx].picked is None
    monkeypatch.undo()

    for ctx in contexts:
        source = irrep_set.image_sources[ctx]
        lift_eigenvectors(base, irrep_set, ctx)
        assert irrep_set.image_sources[ctx] is source
        assert len(source.sums) == len(source.picked) == len(irrep_set)
        assert source.coset_action is ctx.coset_action
