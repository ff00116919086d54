"""Seeded instance generation shared by every workload.

A workload's composition is a fixed list of :class:`Case` slots (group,
subgroup, base-graph size).  Each slot has one random base
graph, drawn once from the slot number alone; the workload seed then draws
an isomorphic copy of it: base vertices relabelled, every voltage conjugated
by one group element, edges reversed at random and the edge list shuffled.  The copy's lift is isomorphic to the original's, so every seed
asks for the same amount of work and gets the same spectrum, while the
package still sees different input on every seed.  Drawing fresh voltages
per seed instead moved the character route's cost per instance by up to 2.5x
(its group-algebra products grow with the voltages' supports), far more
than any bound a regression gate could use; fixed work per slot keeps the
other routes' cost from moving with the seed in the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import liftspectra as ls

# Group name -> (source, degree or family parameter, generators).
GROUPS = {
    "S4": ("generators", 4, ("(1 2)", "(1 2 3 4)")),
    "A5": ("generators", 5, ("(1 2 3)", "(1 2 3 4 5)")),
    "S5": ("generators", 5, ("(1 2)", "(1 2 3 4 5)")),
    "S5xC2": ("generators", 7, ("(1 2)", "(1 2 3 4 5)", "(6 7)")),
    "D6": ("dihedral", 6, ()),
    "D10": ("dihedral", 10, ()),
}

# Generators of one intermediate subgroup per group (neither trivial,
# a point stabilizer, nor the whole group).
MIDDLE = {
    "S4": ("(1 2)(3 4)", "(1 3)(2 4)"),
    "A5": ("(1 2 3)", "(1 2)(4 5)"),
    "S5": ("(1 2 3)", "(1 2)"),
    "S5xC2": ("(1 2 3)", "(1 2)", "(6 7)"),
    "D6": ("(1 3 5)(2 4 6)",),
    "D10": ("(1 3 5 7 9)(2 4 6 8 10)",),
}

TOL_MATCH = 1e-7
TOL_RESIDUAL = 1e-8


@dataclass(frozen=True)
class Case:
    group: str
    subgroup: str
    k: int

    @property
    def label(self) -> str:
        return f"{self.group}/{self.subgroup}/k={self.k}"


@dataclass(frozen=True, eq=False)
class Instance:
    case: Case
    irrep_set: object
    ctx: object
    graph: object


def build_catalog(name: str, irreps_seed: int):
    """Close the group and build its irrep catalog (setup work)."""
    source, param, gens = GROUPS[name]
    if source == "generators":
        group = ls.generate_group([ls.parse_permutation(g, param) for g in gens])
        return ls.compute_irreps(group, seed=irreps_seed)
    return ls.builtin_irreps(source, param)


def subgroup_members(group, name: str, subgroup: str):
    if subgroup == "trivial":
        return frozenset({group.identity})
    if subgroup == "stab":
        return ls.stabilizer(group, 1)
    if subgroup == "full":
        return frozenset(range(group.order))
    gens = [group.index_of(ls.parse_permutation(g, group.degree)) for g in MIDDLE[name]]
    return ls.subgroup_closure(group, gens)


def setup(composition, irreps_seed: int):
    """Everything the queries need before the first one: groups, catalogs, cosets."""
    catalogs = {}
    contexts = {}
    for case in composition:
        if case.group not in catalogs:
            catalogs[case.group] = build_catalog(case.group, irreps_seed)
        key = (case.group, case.subgroup)
        if key not in contexts:
            group = catalogs[case.group].group
            contexts[key] = ls.right_cosets(
                group, subgroup_members(group, case.group, case.subgroup)
            )
    return catalogs, contexts


def random_edges(order: int, case: Case, rng: np.random.Generator):
    """Labelled undirected edges with uniform voltages.

    A random spanning tree, one loop, one parallel edge and random extra
    edges (loops allowed) up to ``2k`` edges.
    """
    k = case.k

    def volt() -> int:
        return int(rng.integers(order))

    edges = [(int(rng.integers(v)), v, volt()) for v in range(1, k)]
    loop_at = int(rng.integers(k))
    edges.append((loop_at, loop_at, volt()))
    if k > 1:
        u, v, _ = edges[int(rng.integers(k - 1))]
        edges.append((u, v, volt()))
    while len(edges) < 2 * k:
        edges.append((int(rng.integers(k)), int(rng.integers(k)), volt()))
    return [(str(u), str(v), g) for u, v, g in edges]


def disguise(group, edges, case: Case, rng: np.random.Generator):
    """An isomorphic copy of a labelled edge list (see the module docstring)."""
    h = int(rng.integers(group.order))
    h_inv = group.inv(h)
    relabel = rng.permutation(case.k)
    out = []
    for u, v, g in edges:
        u, v, g = str(relabel[int(u)]), str(relabel[int(v)]), group.mul(group.mul(h_inv, g), h)
        if rng.random() < 0.5:
            u, v, g = v, u, group.inv(g)
        out.append((u, v, g))
    return [out[i] for i in rng.permutation(len(out))]


def make_pool(composition, catalogs, contexts, seed: int) -> list[Instance]:
    pool = []
    for slot, case in enumerate(composition):
        irrep_set = catalogs[case.group]
        group = irrep_set.group
        edges = random_edges(group.order, case, np.random.default_rng(slot))
        edges = disguise(group, edges, case, np.random.default_rng([seed, slot]))
        graph = ls.VoltageGraph.build(
            irrep_set.group,
            [str(v) for v in range(case.k)],
            edges,
        )
        pool.append(Instance(case, irrep_set, contexts[(case.group, case.subgroup)], graph))
    return pool


def instance_json(inst: Instance, irreps_seed: int) -> dict:
    """The instance as a CLI document with a ``"kind": "generators"`` group."""
    case = inst.case
    source, degree, gens = GROUPS[case.group]
    if source != "generators":
        raise ValueError(f"{case.group} has no generator form")
    group = inst.irrep_set.group
    if case.subgroup == "trivial":
        subgroup = {"kind": "trivial"}
    elif case.subgroup == "stab":
        subgroup = {"kind": "stabilizer", "point": 1}
    elif case.subgroup == "full":
        subgroup = {"kind": "full"}
    else:
        subgroup = {"kind": "generators", "generators": list(MIDDLE[case.group])}
    edges = [
        {"from": u, "to": v, "voltage": group.elements[g].cycle_string()}
        for u, v, g in inst.graph.edge_triples()
    ]
    return {
        "group": {"kind": "generators", "degree": degree, "generators": list(gens)},
        "subgroup": subgroup,
        "graph": {
            "directed": False,
            "vertices": list(inst.graph.vertices),
            "edges": edges,
        },
        "options": {"seed": irreps_seed},
    }


def instance_from_json(path) -> tuple[Instance, int]:
    """Rebuild an instance document with the benchmark's own parser.

    The reference side does not go through ``liftspectra.cli.load_instance``,
    so a parsing fault in the CLI cannot hide behind a reference that shares it.
    Returns the instance and the irrep seed the document asks for.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    irreps_seed = int(doc.get("options", {}).get("seed", 0))
    spec = doc["group"]
    if spec["kind"] == "named":
        family = spec["family"]
        irrep_set = ls.builtin_irreps(family, spec.get("param", 1))
    else:
        degree = spec["degree"]
        gens = [ls.parse_permutation(g, degree) for g in spec["generators"]]
        irrep_set = ls.compute_irreps(ls.generate_group(gens, degree=degree), seed=irreps_seed)
    group = irrep_set.group
    sub = doc["subgroup"]
    if sub["kind"] == "trivial":
        members = frozenset({group.identity})
    elif sub["kind"] == "full":
        members = frozenset(range(group.order))
    elif sub["kind"] == "stabilizer":
        members = ls.stabilizer(group, sub["point"])
    else:
        members = ls.subgroup_closure(
            group,
            [group.index_of(ls.parse_permutation(g, group.degree)) for g in sub["generators"]],
        )
    g = doc["graph"]
    edges = [
        (e["from"], e["to"], group.index_of(ls.parse_permutation(e["voltage"], group.degree)))
        for e in g["edges"]
    ]
    graph = ls.VoltageGraph.build(group, g["vertices"], edges, directed=g.get("directed", False))
    case = Case("file", sub["kind"], graph.k)
    return Instance(case, irrep_set, ls.right_cosets(group, members), graph), irreps_seed
