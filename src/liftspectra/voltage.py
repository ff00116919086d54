"""Voltage graphs, their group-algebra base matrices, and explicit lifts.

A voltage graph is a finite multigraph whose arcs carry group elements.  An
undirected edge is stored as a pair of mutually inverse arcs, so loops
contribute a voltage and its inverse to the same diagonal entry of the base
matrix.  Given a subgroup context with ``n`` cosets, the lift places ``n``
copies of each base vertex and connects ``(u, J)`` to ``(v, J * voltage)``
for every arc ``u -> v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, NumericalError
from .permgroup import (
    FiniteGroup,
    SubgroupContext,
    subgroup_closure,
)

INTEGER_TOL = 1e-9


def _integer_counts(values, elements, stage: str) -> np.ndarray:
    """The nearest integers to complex ``values``, as floats, each within ``INTEGER_TOL``.

    Otherwise :class:`NumericalError`, prefixed by ``stage``, names the first
    value off and its entry in the parallel sequence of group ``elements``.
    """
    values = np.asarray(values, dtype=complex)
    nearest = np.round(values.real)
    off = np.flatnonzero(np.abs(values - nearest) > INTEGER_TOL)
    if off.size:
        i = off[0]
        raise NumericalError(
            f"{stage}: coefficient {complex(values[i])} of element "
            f"{int(elements[i])} is not an integer within {INTEGER_TOL}"
        )
    return nearest


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """A finite formal sum of group elements with complex coefficients.

    Coefficients are keyed by canonical element index.  Products convolve:
    ``(x * y)[k] = sum over i, j with i*j = k of x[i] * y[j]``.
    """

    group: FiniteGroup
    coefficients: dict[int, complex]

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupAlgebraElement":
        return cls(group, {})

    @classmethod
    def from_element(
        cls, group: FiniteGroup, index: int, coefficient: complex = 1.0
    ) -> "GroupAlgebraElement":
        return cls(group, {int(index): complex(coefficient)})

    def coefficient(self, index: int) -> complex:
        return self.coefficients.get(int(index), 0j)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.group is not other.group:
            raise ConsistencyError("cannot add elements over different groups")
        out = dict(self.coefficients)
        for idx, c in other.coefficients.items():
            out[idx] = out.get(idx, 0j) + c
        return GroupAlgebraElement(self.group, out)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.group is not other.group:
            raise ConsistencyError("cannot multiply elements over different groups")
        table = self.group.mult_table
        out: dict[int, complex] = {}
        for i, ci in self.coefficients.items():
            row = table[i]
            for j, cj in other.coefficients.items():
                k = int(row[j])
                out[k] = out.get(k, 0j) + ci * cj
        return GroupAlgebraElement(self.group, out)

    def integer_coefficients(self) -> dict[int, int]:
        """Nonzero coefficients as integers, by :func:`_integer_counts` (stage ``walk counts``)."""
        elements = list(self.coefficients)
        counts = _integer_counts(list(self.coefficients.values()), elements, "walk counts")
        return {g: int(c) for g, c in zip(elements, counts.tolist()) if c}

    def __repr__(self) -> str:
        if not self.coefficients:
            return "GroupAlgebraElement(0)"
        parts = [
            f"{c:g}*{self.group.elements[i].cycle_string()}"
            for i, c in sorted(self.coefficients.items())
        ]
        return "GroupAlgebraElement(" + " + ".join(parts) + ")"


class Arc(NamedTuple):
    tail: int
    head: int
    voltage: int
    paired_arc: int | None


@dataclass(frozen=True, eq=False)
class VoltageGraph:
    """A multigraph with group-element voltages on its arcs.

    For undirected graphs every input edge is stored as two arcs that are
    inverses of each other (``paired_arc`` links them); loops get both
    orientations as well.  Directed graphs keep exactly the arcs given.
    """

    group: FiniteGroup
    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    directed: bool

    @classmethod
    def build(
        cls,
        group: FiniteGroup,
        vertices,
        edges,
        directed: bool = False,
    ) -> "VoltageGraph":
        """Assemble a voltage graph from labelled edges.

        ``edges`` is an iterable of ``(tail_label, head_label, voltage_index)``
        triples; labels must appear in ``vertices``, voltages are canonical
        element indices of ``group``.
        """
        labels = tuple(str(v) for v in vertices)
        if not labels:
            raise ConsistencyError("a voltage graph needs at least one vertex")
        if len(set(labels)) != len(labels):
            raise ConsistencyError("vertex labels must be distinct")
        index = {label: i for i, label in enumerate(labels)}
        arcs: list[Arc] = []
        for tail_label, head_label, voltage in edges:
            try:
                tail = index[str(tail_label)]
                head = index[str(head_label)]
            except KeyError as missing:
                raise ConsistencyError(f"unknown vertex label {missing.args[0]!r}") from None
            voltage = int(voltage)
            if not 0 <= voltage < group.order:
                raise ConsistencyError(f"voltage index {voltage} outside the group")
            if directed:
                arcs.append(Arc(tail, head, voltage, None))
            else:
                pos = len(arcs)
                arcs.append(Arc(tail, head, voltage, pos + 1))
                arcs.append(Arc(head, tail, group.inv(voltage), pos))
        return cls(group=group, vertices=labels, arcs=tuple(arcs), directed=directed)

    @property
    def k(self) -> int:
        return len(self.vertices)

    def edge_triples(self):
        """One ``(tail_label, head_label, voltage)`` triple per input edge."""
        if self.directed:
            chosen = self.arcs
        else:
            chosen = self.arcs[::2]
        return [
            (self.vertices[a.tail], self.vertices[a.head], a.voltage) for a in chosen
        ]


def randomize_voltages(graph: VoltageGraph, rng: np.random.Generator) -> VoltageGraph:
    """Resample every edge voltage uniformly from the graph's group."""
    edges = [
        (tail, head, int(rng.integers(graph.group.order)))
        for tail, head, _ in graph.edge_triples()
    ]
    return VoltageGraph.build(graph.group, graph.vertices, edges, graph.directed)


class VoltageTable(NamedTuple):
    """One row per base-matrix coefficient: entry ``(u, v)`` holds ``c * g``."""

    u: np.ndarray
    v: np.ndarray
    g: np.ndarray
    c: np.ndarray


@dataclass(frozen=True, eq=False)
class BaseMatrix:
    """The vertex-by-vertex matrix of summed arc voltages.

    Entry ``(u, v)`` is the group-algebra sum of the voltages of all arcs
    from ``u`` to ``v``.  For an undirected graph the matrix is self-adjoint:
    transposing and inverting every group element gives it back.
    """

    group: FiniteGroup
    k: int
    entries: tuple[tuple[GroupAlgebraElement, ...], ...]
    directed: bool

    def entry(self, u: int, v: int) -> GroupAlgebraElement:
        return self.entries[u][v]

    @cached_property
    def voltage_table(self) -> VoltageTable:
        """Every coefficient as a ``(u, v, g, c)`` row, computed once per matrix.

        Rows run in entry order: by ``u``, then ``v``, then the insertion
        order of the entry's coefficient dict, which is the order the
        entrywise loops over :meth:`entry` visit them; empty cells have no
        rows and are skipped.  Consumers that sum rows in table order
        therefore add in the same order as those loops and reproduce their
        bits.
        """
        rows = [
            (u, v, g, c)
            for u, row in enumerate(self.entries)
            for v, entry in enumerate(row)
            if entry.coefficients
            for g, c in entry.coefficients.items()
        ]
        u, v, g, c = zip(*rows) if rows else ((), (), (), ())
        table = VoltageTable(
            u=np.array(u, dtype=np.intp),
            v=np.array(v, dtype=np.intp),
            g=np.array(g, dtype=np.intp),
            c=np.array(c, dtype=complex),
        )
        # Every caller of this matrix shares the cached arrays.
        for column in table:
            column.flags.writeable = False
        return table

    def __matmul__(self, other: "BaseMatrix") -> "BaseMatrix":
        if self.group is not other.group or self.k != other.k:
            raise ConsistencyError("base matrices are not conformable")
        rows = []
        for u in range(self.k):
            row = []
            for v in range(self.k):
                acc = GroupAlgebraElement.zero(self.group)
                for w in range(self.k):
                    left = self.entries[u][w]
                    right = other.entries[w][v]
                    if left.coefficients and right.coefficients:
                        acc = acc + left * right
                row.append(acc)
            rows.append(tuple(row))
        return BaseMatrix(
            group=self.group,
            k=self.k,
            entries=tuple(rows),
            directed=self.directed or other.directed,
        )

    def trace(self) -> GroupAlgebraElement:
        acc = GroupAlgebraElement.zero(self.group)
        for u in range(self.k):
            acc = acc + self.entries[u][u]
        return acc


def build_base_matrix(graph: VoltageGraph) -> BaseMatrix:
    """Sum arc voltages into the ``k x k`` group-algebra base matrix.

    Each occupied cell is a plain dict filled in arc order with
    ``cell.get(g, 0j) + (1 + 0j)`` and wrapped as a group-algebra element
    once at the end.  That is the arithmetic and key order of folding
    ``GroupAlgebraElement.from_element`` terms into ``zero()``, so the
    coefficients, their bits and their order are the same.  Every empty
    cell holds one shared ``zero()`` element: no code in the package
    mutates a coefficient dict in place (products and sums build new
    dicts), so sharing it is safe and saves ``k^2`` allocations on sparse
    bases.
    """
    k = graph.k
    cells: dict[tuple[int, int], dict[int, complex]] = {}
    for arc in graph.arcs:
        cell = cells.setdefault((arc.tail, arc.head), {})
        g = int(arc.voltage)
        cell[g] = cell.get(g, 0j) + (1 + 0j)
    empty = GroupAlgebraElement.zero(graph.group)
    rows = [[empty] * k for _ in range(k)]
    for (u, v), cell in cells.items():
        rows[u][v] = GroupAlgebraElement(graph.group, cell)
    return BaseMatrix(
        group=graph.group,
        k=k,
        entries=tuple(map(tuple, rows)),
        directed=graph.directed,
    )


def _powers(base: BaseMatrix, count: int):
    """Yield ``B, B^2, ..., B^count``, each power the previous one ``@ base``."""
    power = base
    for ell in range(1, count + 1):
        if ell > 1:
            power = power @ base
        yield power


def base_matrix_power(base: BaseMatrix, power: int) -> BaseMatrix:
    """Repeated base-matrix product, checking coefficients stay integral.

    Powers of a base matrix count voltage-weighted walks, so every
    coefficient must be a non-negative integer; drifting off the integers
    signals a logic error and raises :class:`NumericalError`.
    """
    if power < 1:
        raise ValueError(f"power must be at least 1, got {power}")
    for out in _powers(base, power):
        pass
    for row in out.entries:
        for entry in row:
            entry.integer_coefficients()
    return out


@dataclass(frozen=True, eq=False)
class LiftGraph:
    """An explicit lift: one vertex per (base vertex, coset) pair.

    Rows are ordered base-vertex major, then by coset label, matching the
    coordinate layout used for eigenvectors.
    """

    vertex_labels: tuple[tuple[str, int], ...]
    adjacency: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vertex_labels)

    def label_strings(self) -> list[str]:
        return [f"{base}@{coset}" for base, coset in self.vertex_labels]

    def edge_lines(self) -> list[str]:
        """Text export, one ``tail head multiplicity`` line per nonzero entry."""
        labels = self.label_strings()
        lines = []
        for i, j in zip(*np.nonzero(self.adjacency)):
            lines.append(f"{labels[i]} {labels[j]} {int(self.adjacency[i, j])}")
        return lines

    def to_json(self) -> dict:
        return {
            "vertices": self.label_strings(),
            "adjacency": [[int(x) for x in row] for row in self.adjacency],
        }


def _lift_terms(base: BaseMatrix, ctx: SubgroupContext) -> list:
    """The lift's arcs as ``(u, v, count, coset action)`` rows, one per base-matrix voltage.

    The ``count`` arcs ``u -> v`` with voltage ``g`` join ``(u, J)`` to
    ``(v, J g)`` for every coset ``J``, and ``J g`` is entry ``J`` of row
    ``g`` of :attr:`SubgroupContext.coset_action`.  Counts come from the
    voltage table by :func:`_integer_counts`; rows with count 0 are dropped.
    """
    table = base.voltage_table
    counts = _integer_counts(table.c, table.g, "lift terms")
    actions = ctx.coset_action
    keep = np.flatnonzero(counts)
    columns = (col[keep].tolist() for col in (table.u, table.v, table.g, counts))
    return [(u, v, int(c), actions[g]) for u, v, g, c in zip(*columns)]


def build_lift(graph: VoltageGraph, ctx: SubgroupContext) -> LiftGraph:
    """Construct the lift adjacency over the context's coset space.

    Every arc ``u -> v`` with voltage ``g`` contributes one edge from
    ``(u, J)`` to ``(v, Jg)`` for each coset ``J`` (:func:`_lift_terms`).
    Undirected base graphs therefore produce symmetric adjacency matrices,
    and each row sums to the out-degree of its base vertex.
    """
    if graph.group is not ctx.group:
        raise ConsistencyError("graph and subgroup context belong to different groups")
    n = ctx.index_n
    k = graph.k
    adjacency = np.zeros((k * n, k * n), dtype=np.int64)
    cosets = np.arange(n)
    # An action is a permutation of the cosets, so no row repeats an index.
    for u, v, count, action in _lift_terms(build_base_matrix(graph), ctx):
        adjacency[u * n + cosets, v * n + action] += count
    labels = tuple(
        (label, coset) for label in graph.vertices for coset in range(n)
    )
    return LiftGraph(vertex_labels=labels, adjacency=adjacency)


def local_group_is_transitive(graph: VoltageGraph, group: FiniteGroup) -> bool:
    """Decide lift connectivity via the local voltage group at a base vertex.

    Spanning-tree voltages are accumulated from vertex 0; every arc then
    contributes ``w(tail) * voltage * w(head)^-1`` to the local group.  The
    cosets of ``Stab(1)`` are the points of the group's orbit of point 1, so
    the lift over ``Stab(1)`` is connected exactly when the local group's
    orbit of point 1 is that whole orbit.

    Raises
    ------
    ConsistencyError
        If the base graph is disconnected (the local group is then undefined
        as a single object).
    """
    if graph.group is not group:
        raise ConsistencyError("graph voltages live in a different group")
    k = graph.k
    walk_voltage: list[int | None] = [None] * k
    walk_voltage[0] = group.identity
    queue = [0]
    # Arcs are traversable both ways; a reverse traversal inverts the voltage.
    outgoing: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for arc in graph.arcs:
        outgoing[arc.tail].append((arc.head, arc.voltage))
        if graph.directed:
            outgoing[arc.head].append((arc.tail, group.inv(arc.voltage)))
    while queue:
        u = queue.pop()
        for head, voltage in outgoing[u]:
            if walk_voltage[head] is None:
                walk_voltage[head] = group.mul(walk_voltage[u], voltage)
                queue.append(head)
    if any(w is None for w in walk_voltage):
        raise ConsistencyError("base graph is disconnected")
    local_generators = set()
    for arc in graph.arcs:
        closed = group.mul(
            group.mul(walk_voltage[arc.tail], arc.voltage),
            group.inv(walk_voltage[arc.head]),
        )
        if closed != group.identity:
            local_generators.add(closed)
    local = subgroup_closure(group, local_generators)
    orbit = {group.elements[x].apply(1) for x in local}
    return orbit == {p.apply(1) for p in group.elements}
