"""Finite permutation groups with dense multiplication tables.

Conventions used throughout the package:

* points are 1-based, so a permutation on ``m`` points maps ``p`` to
  ``images[p - 1]``;
* the point is written on the left, so products compose left to right:
  ``(p)(a * b) == ((p)a)b``;
* group elements are kept in canonical order, lexicographic by image tuple,
  which always places the identity first.  Every derived index (inverses,
  multiplication table, coset labels) refers to that order, so repeated runs
  produce identical layouts.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParseError

DEFAULT_ORDER_CAP = 10080

_CYCLES_RE = re.compile(r"(?:\s*\([^()]*\))+\s*\Z")
_CYCLE_BODY_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1, ..., degree}`` stored as its image tuple."""

    degree: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ParseError(f"degree must be at least 1, got {self.degree}")
        if len(self.images) != self.degree:
            raise ParseError("image tuple length does not match degree")
        if sorted(self.images) != list(range(1, self.degree + 1)):
            raise ParseError(f"images {self.images} are not a bijection")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(degree, tuple(range(1, degree + 1)))

    def apply(self, point: int) -> int:
        """Image of ``point`` under this permutation (1-based)."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply ``self`` first, then ``other``."""
        if self.degree != other.degree:
            raise ConsistencyError("cannot compose permutations of different degree")
        return Permutation(
            self.degree, tuple(other.images[i - 1] for i in self.images)
        )

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(self.degree, tuple(inv))

    def is_identity(self) -> bool:
        return all(i == p for p, i in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, smallest point first."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self.apply(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self.apply(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def sign(self) -> int:
        """Parity of the permutation: +1 for even, -1 for odd."""
        transpositions = sum(len(c) - 1 for c in self.cycles())
        return -1 if transpositions % 2 else 1

    def __repr__(self) -> str:
        return f"Permutation({self.degree}, {self.cycle_string()!r})"


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint cycle notation into a :class:`Permutation`.

    The accepted grammar is a sequence of parenthesised cycles, each either
    empty (``"()"``) or holding two or more space-separated 1-based points,
    e.g. ``"(1 2)(3 4 5)"``.  Points must be distinct across all cycles and
    lie within ``1..degree``.

    Raises
    ------
    ParseError
        On malformed syntax, repeated points, points out of range, or a
        degree below 1.
    """
    if degree < 1:
        raise ParseError(f"degree must be at least 1, got {degree}")
    if not isinstance(text, str) or not _CYCLES_RE.match(text):
        raise ParseError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for body in _CYCLE_BODY_RE.findall(text):
        tokens = body.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            raise ParseError(f"cycle ({body.strip()}) needs at least two points")
        points = []
        for tok in tokens:
            try:
                point = int(tok)
            except ValueError:
                raise ParseError(f"invalid point {tok!r} in cycle notation") from None
            if not 1 <= point <= degree:
                raise ParseError(f"point {point} outside 1..{degree}")
            if point in seen:
                raise ParseError(f"point {point} repeated across cycles")
            seen.add(point)
            points.append(point)
        for pos, point in enumerate(points):
            images[point - 1] = points[(pos + 1) % len(points)]
    return Permutation(degree, tuple(images))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite permutation group with precomputed product and inverse tables.

    Elements are indexed ``0..order-1`` in canonical order; index 0 is always
    the identity.  ``mult_table[a, b]`` is the index of ``elements[a] *
    elements[b]`` (left-to-right composition), and ``inverse_table[a]`` the
    index of the inverse.
    """

    degree: int
    elements: tuple[Permutation, ...]
    generators: tuple[int, ...]
    mult_table: np.ndarray
    inverse_table: np.ndarray
    _index: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return int(self.mult_table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def index_of(self, perm: Permutation) -> int:
        """Canonical index of ``perm``, or :class:`ConsistencyError` if absent."""
        if perm.degree != self.degree:
            raise ConsistencyError(
                f"permutation degree {perm.degree} does not match group degree {self.degree}"
            )
        idx = self._index.get(perm.images)
        if idx is None:
            raise ConsistencyError(
                f"{perm.cycle_string()} is not an element of the group"
            )
        return idx

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def generate_group(
    generators: list[Permutation],
    order_cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> FiniteGroup:
    """Close a generator list under composition and build the group tables.

    Parameters
    ----------
    generators : list of Permutation
        Generating permutations, all of one degree.  May be empty, in which
        case ``degree`` is required and the trivial group is returned.
    order_cap : int
        Upper bound on the closure size; exceeding it raises
        :class:`ConsistencyError`.
    degree : int, optional
        Degree of the trivial group when ``generators`` is empty.  If given
        alongside generators it must agree with their degree.

    Notes
    -----
    Closure runs breadth-first from the identity, multiplying on the right by
    the generators in the order given.  Each non-identity element is reached
    as ``parent * generator``, which lets the full multiplication table be
    filled by index lookups instead of fresh compositions.
    """
    if generators:
        deg = generators[0].degree
        if degree is not None and degree != deg:
            raise ConsistencyError(
                f"explicit degree {degree} conflicts with generator degree {deg}"
            )
        if any(g.degree != deg for g in generators):
            raise ConsistencyError("generators must share one degree")
    else:
        if degree is None:
            raise ConsistencyError("an empty generator list requires an explicit degree")
        deg = degree
    if deg < 1:
        raise ParseError(f"degree must be at least 1, got {deg}")

    identity = Permutation.identity(deg)
    bfs_elements = [identity]
    bfs_index = {identity.images: 0}
    parent: list[tuple[int, int]] = [(-1, -1)]
    gen_products: list[list[int]] = []

    pos = 0
    while pos < len(bfs_elements):
        x = bfs_elements[pos]
        row = []
        for gi, gen in enumerate(generators):
            y = x * gen
            j = bfs_index.get(y.images)
            if j is None:
                j = len(bfs_elements)
                if j >= order_cap:
                    raise ConsistencyError(
                        f"group closure exceeded order_cap={order_cap}"
                    )
                bfs_index[y.images] = j
                bfs_elements.append(y)
                parent.append((pos, gi))
            row.append(j)
        gen_products.append(row)
        pos += 1

    n = len(bfs_elements)
    table_bfs = np.empty((n, n), dtype=np.int64)
    table_bfs[:, 0] = np.arange(n)
    gen_arr = np.asarray(gen_products, dtype=np.int64).reshape(n, len(generators))
    for y in range(1, n):
        p, gi = parent[y]
        table_bfs[:, y] = gen_arr[table_bfs[:, p], gi]

    order_canon = sorted(range(n), key=lambda i: bfs_elements[i].images)
    sigma = np.empty(n, dtype=np.int64)
    for canon_pos, bfs_pos in enumerate(order_canon):
        sigma[bfs_pos] = canon_pos

    elements = tuple(bfs_elements[i] for i in order_canon)
    mult_table = np.empty((n, n), dtype=np.int64)
    mult_table[np.ix_(sigma, sigma)] = sigma[table_bfs]

    inverse_table = np.empty(n, dtype=np.int64)
    rows, cols = np.nonzero(mult_table == 0)
    inverse_table[rows] = cols

    index = {p.images: i for i, p in enumerate(elements)}
    gen_indices = tuple(int(sigma[bfs_index[g.images]]) for g in generators)
    return FiniteGroup(
        degree=deg,
        elements=elements,
        generators=gen_indices,
        mult_table=mult_table,
        inverse_table=inverse_table,
        _index=index,
    )


def subgroup_closure(group: FiniteGroup, gen_indices) -> frozenset[int]:
    """Indices of the subgroup generated by the given element indices."""
    members = {group.identity}
    queue = [group.identity]
    gens = [int(g) for g in gen_indices]
    while queue:
        x = queue.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def stabilizer(group: FiniteGroup, point: int) -> frozenset[int]:
    """Indices of elements fixing ``point`` (1-based)."""
    if not 1 <= point <= group.degree:
        raise ConsistencyError(f"point {point} outside 1..{group.degree}")
    return frozenset(
        i for i, p in enumerate(group.elements) if p.apply(point) == point
    )


def _check_subgroup(group: FiniteGroup, members: np.ndarray) -> None:
    """Refuse a sorted index array that is not a subgroup of ``group``."""
    if members.size and not 0 <= members[0] <= members[-1] < group.order:
        raise ConsistencyError(f"subgroup elements must be indices 0..{group.order - 1}")
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    if not inside[group.identity]:
        raise ConsistencyError("subgroup must contain the identity")
    if not inside[group.inverse_table[members]].all():
        raise ConsistencyError("subgroup is not closed under inverses")
    if not inside[group.mult_table[np.ix_(members, members)]].all():
        raise ConsistencyError("subgroup is not closed under products")


@dataclass(frozen=True, eq=False)
class SubgroupContext:
    """A subgroup together with its right cosets in a fixed order.

    Coset 0 is the subgroup itself.  The remaining cosets are discovered
    breadth-first from it by right-multiplying with the group generators in
    generator order, so the labelling is reproducible.  All arrays are
    read-only.  ``sorted_members`` lists the subgroup's element indices in
    ascending order and ``coset_of[x]`` is the coset label of element ``x``.
    ``coset_order`` is the stable ``argsort(coset_of)``: coset ``J`` fills
    positions ``J * |H|`` to ``(J + 1) * |H|``, ascending.
    ``representatives[j]`` is the canonically smallest member of coset ``j``.
    """

    group: FiniteGroup
    sorted_members: np.ndarray
    coset_of: np.ndarray
    coset_order: np.ndarray
    representatives: tuple[int, ...]

    @property
    def index_n(self) -> int:
        return len(self.representatives)

    @functools.cached_property
    def subgroup_elements(self) -> frozenset[int]:
        """The subgroup's element indices, built on first read."""
        return frozenset(self.sorted_members.tolist())

    @functools.cached_property
    def cosets(self) -> tuple[frozenset[int], ...]:
        """The member sets of the cosets in label order, built on first read."""
        by_coset = self.coset_order.reshape(self.index_n, -1).tolist()
        return tuple(frozenset(coset) for coset in by_coset)

    @functools.cached_property
    def coset_action(self) -> np.ndarray:
        """The ``(|G|, n)`` table whose row ``g`` sends coset ``J`` to ``J g`` (read-only).

        Row ``g`` is the permutation of coset labels induced by right
        multiplication with ``g``: entry ``J`` is the label of
        ``representatives[J] * g``.  It has ``n <= |G|`` columns, so it is
        never larger than ``mult_table``.
        """
        reps = np.asarray(self.representatives, dtype=np.int64)
        table = np.ascontiguousarray(self.coset_of[self.group.mult_table[reps, :]].T)
        table.flags.writeable = False
        return table


def right_cosets(group: FiniteGroup, subgroup_elements) -> SubgroupContext:
    """Partition the group into right cosets of a subgroup.

    Raises
    ------
    ConsistencyError
        If ``subgroup_elements`` is not a subgroup (identity missing, or not
        closed under products and inverses), or if the group's generators
        leave a coset unreached.
    """
    sorted_members = np.array(sorted({int(x) for x in subgroup_elements}), dtype=np.int64)
    _check_subgroup(group, sorted_members)

    # Column x of the table over H's rows is the right coset H x.  Each coset
    # is named by its smallest element; since (H x) g = H (x g), step[x] names
    # the cosets that H x moves to under the generators, in generator order.
    smallest = group.mult_table[sorted_members, :].min(axis=0)
    step = smallest[group.mult_table[:, list(group.generators)]].tolist()
    label = [-1] * group.order
    label[group.identity] = 0
    representatives = [group.identity]
    pos = 0
    while pos < len(representatives):
        for nxt in step[representatives[pos]]:
            if label[nxt] < 0:
                label[nxt] = len(representatives)
                representatives.append(nxt)
        pos += 1
    coset_of = np.array(label, dtype=np.int64)[smallest]
    if np.any(coset_of < 0):
        raise ConsistencyError("group generators do not reach every coset")
    coset_order = np.argsort(coset_of, kind="stable")
    for array in (sorted_members, coset_of, coset_order):
        array.flags.writeable = False
    return SubgroupContext(
        group=group,
        sorted_members=sorted_members,
        coset_of=coset_of,
        coset_order=coset_order,
        representatives=tuple(representatives),
    )


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(group: FiniteGroup) -> list[ConjugacyClass]:
    """Conjugacy classes ordered by their canonically smallest member.

    The class equation is checked on the way out: for each class,
    ``size * |centralizer(rep)| == |G|``.
    """
    n = group.order
    table = group.mult_table
    everyone = np.arange(n)
    unseen = np.ones(n, dtype=bool)
    classes = []
    while unseen.any():
        x = int(np.argmax(unseen))
        # Entry a is a^-1 x a.
        conjugates = table[table[group.inverse_table, x], everyone]
        unseen[conjugates] = False
        members = frozenset(conjugates.tolist())
        centralizer = np.count_nonzero(table[:, x] == table[x, :])
        if len(members) * centralizer != n:
            raise ConsistencyError("class equation violated; group tables corrupt")
        classes.append(ConjugacyClass(representative=x, members=members))
    return classes


def is_transitive(group: FiniteGroup) -> bool:
    """Whether the group's action on ``1..degree`` has a single orbit."""
    orbit = {p.apply(1) for p in group.elements}
    return len(orbit) == group.degree


def is_regular_action(group: FiniteGroup) -> bool:
    """Transitive with trivial point stabilizers, i.e. order equals degree."""
    return is_transitive(group) and group.order == group.degree


def is_normal(ctx: SubgroupContext) -> bool:
    """Whether the context's subgroup is normal in its group."""
    table = ctx.group.mult_table
    # Entry (g, h) is g h g^-1; conjugation is a bijection, so gHg^-1 = H iff gHg^-1 <= H.
    conjugates = table[table[:, ctx.sorted_members], ctx.group.inverse_table[:, None]]
    return bool(np.all(ctx.coset_of[conjugates] == 0))
