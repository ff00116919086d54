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
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, NumericalError
from .permgroup import (
    FiniteGroup,
    SubgroupContext,
    subgroup_closure,
)

INTEGER_TOL = 1e-9
# The most lift vertices ``build_lift`` builds; its dense int64 adjacency
# then takes at most 512 MiB.
MAX_LIFT_VERTICES = 8192


def _json_value(document):
    """A result's document as plain JSON values, as its ``to_json()`` returns it.

    Each result describes its document once (``_document()``), with numpy
    arrays and complex numbers where the JSON has lists: an array is listed
    with ``tolist()``, and a complex entry becomes ``[re, im]``.  The CLI
    writes the same description as text without listing it.
    """
    if isinstance(document, dict):
        return {key: _json_value(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [_json_value(value) for value in document]
    if isinstance(document, np.ndarray):
        if document.dtype.kind == "c":
            document = np.stack((document.real, document.imag), axis=-1)
        return document.tolist()
    if isinstance(document, complex):
        return [document.real, document.imag]
    return document


def _integer_counts(values, elements, stage: str) -> np.ndarray:
    """The nearest integers to complex ``values``, as floats, each within ``INTEGER_TOL``.

    Otherwise, NaN included, :class:`NumericalError`, prefixed by ``stage``,
    names the first value off and its entry in the parallel sequence of group
    ``elements``.  A value of magnitude ``2**53`` or more raises too: a float
    there may already be a rounded count, so no integer read from it is sure.
    """
    values = np.asarray(values, dtype=complex)
    nearest = np.round(values.real)
    off = np.flatnonzero(~(np.abs(values - nearest) <= INTEGER_TOL))
    if off.size:
        i = off[0]
        raise NumericalError(
            f"{stage}: coefficient {complex(values[i])} of element "
            f"{int(elements[i])} is not an integer within {INTEGER_TOL}"
        )
    big = np.flatnonzero(np.abs(nearest) >= 2**53)
    if big.size:
        i = big[0]
        raise NumericalError(
            f"{stage}: coefficient {complex(values[i])} of element "
            f"{int(elements[i])} is 2**53 or more, past the integers a float holds exactly"
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
    """One row per base-matrix coefficient: entry ``(u, v)`` holds ``c * g``.

    Rows run by ``(u, v)``, then in the order the cell's elements ``g``
    first appear; no two rows share ``(u, v, g)``, and empty cells have no
    rows.  Consumers that sum rows in table order add each cell's terms in
    that order.  In a :class:`BaseMatrix` the columns are read-only, ``u``,
    ``v`` and ``g`` as ``intp`` and ``c`` as an object array of exact
    Python ``int`` counts.
    """

    u: np.ndarray
    v: np.ndarray
    g: np.ndarray
    c: np.ndarray


@dataclass(frozen=True, eq=False)
class BaseMatrix:
    """The vertex-by-vertex matrix of summed arc voltages, held as its voltage table.

    Entry ``(u, v)`` is the group-algebra sum of the voltages of all arcs
    from ``u`` to ``v``: the rows of :attr:`voltage_table` at ``(u, v)``.
    For an undirected graph the matrix is self-adjoint: transposing and
    inverting every group element gives it back.
    """

    group: FiniteGroup
    k: int
    voltage_table: VoltageTable
    directed: bool

    def __post_init__(self) -> None:
        """Take the table over as read-only columns of in-range indices and exact counts.

        An index outside ``0..k-1`` (``u``, ``v``) or the group (``g``)
        raises :class:`ConsistencyError`.  Integer counts are kept exact as
        Python ``int``s; any other coefficient must pass
        :func:`_integer_counts` (stage ``base matrix``) and becomes the
        ``int`` nearest to it.
        """
        index = np.array(self.voltage_table[:3], dtype=np.intp)
        counts = np.array(self.voltage_table.c, dtype=object)
        if counts.ndim != 1 or index.shape != (3, counts.size):
            raise ConsistencyError("base matrix: the table's columns differ in length")
        # As unsigned, a negative index is above every bound too.
        high = index.view(np.uintp).max(axis=1, initial=0).tolist()
        for name, column, bound, top in zip("uvg", index, (self.k, self.k, self.group.order), high):
            if top >= bound:
                row = int(np.flatnonzero(column.view(np.uintp) >= bound)[0])
                raise ConsistencyError(
                    f"base matrix: {name} = {column[row]} in row {row} is outside 0..{bound - 1}"
                )
        values = counts.tolist()
        if not {*map(type, values)} <= {int}:
            off = [row for row, x in enumerate(values) if type(x) is not int]
            nearest = _integer_counts(counts[off], index[2, off], "base matrix")
            counts[off] = [int(x) for x in nearest.tolist()]
        index.flags.writeable = False
        counts.flags.writeable = False
        table = VoltageTable(*index, counts)
        object.__setattr__(self, "voltage_table", table)

    @cached_property
    def entries(self) -> tuple[tuple[GroupAlgebraElement, ...], ...]:
        """The ``k x k`` grid of group-algebra entries, built from the table on first read.

        Each entry's coefficients are its table rows' counts as ``complex``,
        in table order.  Every empty cell holds one shared ``zero()``
        element: no code in the package mutates a coefficient dict in place
        (products and sums build new dicts), so sharing it is safe.
        """
        table = self.voltage_table
        cells: dict[tuple[int, int], dict[int, complex]] = {}
        for u, v, g, c in zip(*(column.tolist() for column in table)):
            cells.setdefault((u, v), {})[g] = complex(c)
        empty = GroupAlgebraElement.zero(self.group)
        rows = [[empty] * self.k for _ in range(self.k)]
        for (u, v), cell in cells.items():
            rows[u][v] = GroupAlgebraElement(self.group, cell)
        return tuple(map(tuple, rows))

    def entry(self, u: int, v: int) -> GroupAlgebraElement:
        return self.entries[u][v]

    def __matmul__(self, other: "BaseMatrix") -> "BaseMatrix":
        """The product, whose table is formed from the two tables.

        Entry ``(u, w)`` is ``sum_v self[u, v] * other[v, w]``.  The terms
        ``c * d`` of row pairs ``(u, v, g, c)``, ``(v, w, h, d)`` are taken
        by ``(u, w)``, then by ``v``, then in the two cells' row orders, and
        summed exactly per ``(u, w, g h)``; the product's rows keep the
        order in which each ``g h`` first appears, which is the key order of
        multiplying the entries' coefficient dicts cell by cell.
        """
        if self.group is not other.group or self.k != other.k:
            raise ConsistencyError("base matrices are not conformable")
        left, right = self.voltage_table, other.voltage_table
        k = self.k
        order = self.group.order
        # Pair every left row (u, v, g, c) with each right row of row v.
        starts = np.searchsorted(right.u, np.arange(k + 1))
        counts = starts[left.v + 1] - starts[left.v]
        a = np.repeat(np.arange(left.u.size), counts)
        b = np.arange(a.size) + np.repeat(starts[left.v] - (np.cumsum(counts) - counts), counts)
        # Stable, so each (u, w) keeps its terms by v and by row order.
        ranked = np.lexsort((right.v[b], left.u[a]))
        a, b = a[ranked], b[ranked]
        u, w = left.u[a], right.v[b]
        x = self.group.mult_table[left.g[a], right.g[b]].astype(np.intp)
        per_cell, first = _first_appearance((u * k + w) * order + x)
        coefficients = np.zeros(first.size, dtype=object)
        np.add.at(coefficients, per_cell, left.c[a] * right.c[b])
        table = VoltageTable(u[first], w[first], x[first], coefficients)
        directed = self.directed or other.directed
        return BaseMatrix(group=self.group, k=k, voltage_table=table, directed=directed)

    def trace(self) -> GroupAlgebraElement:
        """The sum of the diagonal entries: exact counts added in table order, then ``complex``."""
        table = self.voltage_table
        diagonal = np.flatnonzero(table.u == table.v)
        sums: dict[int, int] = {}
        for g, c in zip(table.g[diagonal].tolist(), table.c[diagonal].tolist()):
            sums[g] = sums.get(g, 0) + c
        return GroupAlgebraElement(self.group, {g: complex(c) for g, c in sums.items()})


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's group, numbered in order of first appearance, and each group's first position."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    # A stable sort puts each group's first position at the start of its run.
    first = order[starts]
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(by_first.size)
    groups = np.empty_like(order)
    groups[order] = number[np.cumsum(starts) - 1]
    return groups, first[by_first]


def build_base_matrix(graph: VoltageGraph) -> BaseMatrix:
    """Count the arcs of each ``(u, v, voltage)`` into the base matrix's voltage table.

    Rows run by ``(u, v)`` and then by each voltage's first arc in the
    cell: the order of folding ``GroupAlgebraElement.from_element`` terms
    into ``zero()`` arc by arc.
    """
    counts: dict[tuple[int, int, int], int] = {}
    for arc in graph.arcs:
        key = arc[:3]
        counts[key] = counts.get(key, 0) + 1
    # The sort is stable, so each cell keeps its voltages in first-arc order.
    keys = sorted(counts, key=itemgetter(0, 1))
    u, v, g = zip(*keys) if keys else ((), (), ())
    table = VoltageTable(u, v, g, [counts[key] for key in keys])
    return BaseMatrix(group=graph.group, k=graph.k, voltage_table=table, directed=graph.directed)


def _powers(base: BaseMatrix, count: int):
    """Yield ``B, B^2, ..., B^count``, each power the previous one ``@ base``."""
    power = base
    for ell in range(1, count + 1):
        if ell > 1:
            power = power @ base
        yield power


def base_matrix_power(base: BaseMatrix, power: int) -> BaseMatrix:
    """``base`` multiplied by itself ``power`` times: exact walk counts, by voltage."""
    if power < 1:
        raise ValueError(f"power must be at least 1, got {power}")
    for out in _powers(base, power):
        pass
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

    def _document(self) -> dict:
        return {"vertices": self.label_strings(), "adjacency": self.adjacency}

    def to_json(self) -> dict:
        return _json_value(self._document())


def _lift_terms(base: BaseMatrix, actions: np.ndarray) -> list:
    """The lift's arcs as ``(u, v, count, coset action)`` rows, one per base-matrix voltage.

    The ``count`` arcs ``u -> v`` with voltage ``g`` join ``(u, J)`` to
    ``(v, J g)`` for every coset ``J``, and ``J g`` is entry ``J`` of row
    ``g`` of ``actions``, a :attr:`SubgroupContext.coset_action` table.
    Rows with count 0 are dropped.
    """
    table = base.voltage_table
    keep = np.flatnonzero(table.c)
    columns = (column[keep].tolist() for column in table)
    return [(u, v, c, actions[g]) for u, v, g, c in zip(*columns)]


def build_lift(graph: VoltageGraph, ctx: SubgroupContext) -> LiftGraph:
    """Construct the lift adjacency over the context's coset space.

    Every arc ``u -> v`` with voltage ``g`` contributes one edge from
    ``(u, J)`` to ``(v, Jg)`` for each coset ``J`` (:func:`_lift_terms`).
    Undirected base graphs therefore produce symmetric adjacency matrices,
    and each row sums to the out-degree of its base vertex.  A lift of more
    than ``MAX_LIFT_VERTICES`` vertices raises :class:`ConsistencyError`
    before anything is allocated.
    """
    if graph.group is not ctx.group:
        raise ConsistencyError("graph and subgroup context belong to different groups")
    n = ctx.index_n
    k = graph.k
    if k * n > MAX_LIFT_VERTICES:
        raise ConsistencyError(
            f"build_lift: the lift has k*n = {k}*{n} = {k * n} vertices, above "
            f"MAX_LIFT_VERTICES = {MAX_LIFT_VERTICES}, the most built as a dense matrix"
        )
    adjacency = np.zeros((k * n, k * n), dtype=np.int64)
    cosets = np.arange(n)
    # An action is a permutation of the cosets, so no row repeats an index.
    for u, v, count, action in _lift_terms(build_base_matrix(graph), ctx.coset_action):
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
