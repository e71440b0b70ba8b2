"""Simple undirected graphs stored as bitset rows.

Vertex subsets are plain Python ints used as bitmasks (bit ``i`` is vertex
``i``).  Graphs are immutable after construction and every operation here is
a pure function, so values can be shared freely between threads.

An edge mask is a whole edge set as one int: bit ``v*(v-1)/2 + u`` is the
pair ``(u, v)``, u < v, so pairs run (0,1), (0,2), (1,2), (0,3), ..., the
graph6 bit order.  graph6, the bounded scan and canonical keys all go through
``Graph._edge_mask`` and ``Graph._from_mask``.

Sizes that enter from a caller or a file (``Graph(n, edges)``, ``ThetaSpec``,
the named generators) are capped at MAX_VERTICES = 64; graphs derived from
existing ones, such as complements, products and slide-graph skeletons, are not.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .errors import CapacityError, InvalidParameterError, InvalidThetaSpecError

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple graph: vertex count ``n`` plus one adjacency bitmask per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise InvalidParameterError(f"vertex count {n!r} is not an int")
        if not 1 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"loop at vertex {u}")
            if rows[u] >> v & 1:
                raise InvalidParameterError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Trusted fast path: rows must already be symmetric and loop-free."""
        g = object.__new__(cls)
        rows = tuple(rows)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", rows)
        return g

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "Graph":
        """Trusted fast path: the graph on n vertices with edge mask ``mask``."""
        pairs = _mask_pairs(n)
        rows = [0] * n
        while mask:
            low = mask & -mask
            u, bit_v, v, bit_u = pairs[low.bit_length() - 1]
            rows[u] |= bit_v
            rows[v] |= bit_u
            mask ^= low
        return cls._from_rows(rows)

    def _edge_mask(self) -> int:
        """The edge mask of this graph; inverse of ``_from_mask``."""
        mask = shift = 0
        for v, row in enumerate(self.adj):
            mask |= (row & ((1 << v) - 1)) << shift
            shift += v
        return mask

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # the default restore sets the slots through __setattr__, which raises
        return Graph._from_rows, (self.adj,)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """Edges ``(u, v)`` with u < v, in lexicographic order."""
        return [(u, v) for u, row in enumerate(self.adj) for v in bits(row >> u + 1 << u + 1)]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= self.adj[v]
            frontier = grow & ~seen
            seen |= frontier
        return seen == self.full_mask()

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                u = queue.pop()
                for v in bits(self.adj[u]):
                    if color[v] == -1:
                        color[v] = color[u] ^ 1
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
        return True

    def has_triangle(self) -> bool:
        for u, v in self.edges():
            if self.adj[u] & self.adj[v]:
                return True
        return False

    # -- derived graphs ------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask()
        return Graph._from_rows(
            (full & ~self.adj[v]) & ~(1 << v) for v in range(self.n)
        )

    def induced(self, mask: int) -> tuple["Graph", list[int]]:
        """Subgraph induced by the vertices of ``mask``.

        Returns the new graph and the list of original vertex indices, in
        the order they were relabeled to 0, 1, ...
        """
        if mask < 0 or mask >> self.n:
            raise InvalidParameterError(f"mask {mask:#x} names vertices outside 0..{self.n - 1}")
        keep = list(bits(mask))
        if not keep:
            raise InvalidParameterError("induced subgraph needs at least one vertex")
        pos = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for u in bits(self.adj[v] & mask):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph._from_rows(rows), keep

    def relabel(self, perm: list[int]) -> "Graph":
        """Apply permutation ``perm`` (``perm[v]`` is the new index of ``v``).
        Raises InvalidParameterError unless ``perm`` is a permutation of
        ``range(n)``."""
        n = self.n
        try:
            image = [1 << p for p in perm]
        except (TypeError, ValueError):
            image = None
        # n powers of two sum to 2^n - 1 only when they are the n bits below n
        if image is None or len(image) != n or sum(image) != (1 << n) - 1:
            raise InvalidParameterError(f"relabel needs a permutation of range({n}), got {perm!r}")
        rows = [0] * n
        for v, old in enumerate(self.adj):
            row = 0
            while old:
                low = old & -old
                row |= image[low.bit_length() - 1]
                old ^= low
            rows[perm[v]] = row
        return Graph._from_rows(rows)


@cache
def _mask_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Edge-mask bit index to ``(u, 1 << v, v, 1 << u)``; decoders keep n <= MAX_VERTICES."""
    return tuple((u, 1 << v, v, 1 << u) for v in range(1, n) for u in range(v))


def line_graph(g: Graph) -> Graph:
    """Line graph L(g): one vertex per edge of g, in lexicographic edge order.

    ``at[v]`` is the mask of the edges at v, so edge i = ab meets exactly
    the edges of ``at[a] | at[b]`` other than itself.
    """
    es = g.edges()
    if not es:
        raise InvalidParameterError("line graph of an edgeless graph is undefined here")
    at = [0] * g.n
    for i, (a, b) in enumerate(es):
        at[a] |= 1 << i
        at[b] |= 1 << i
    return Graph._from_rows((at[a] | at[b]) ^ 1 << i for i, (a, b) in enumerate(es))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._from_rows(rows)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,x)~(b,y) iff a=b and x~y, or x=y and a~b.

    Vertex (a, x) gets index a*h.n + x.
    """
    n = g.n * h.n
    rows = [0] * n
    for a in range(g.n):
        for x in range(h.n):
            i = a * h.n + x
            row = 0
            for y in bits(h.adj[x]):
                row |= 1 << (a * h.n + y)
            for b in bits(g.adj[a]):
                row |= 1 << (b * h.n + x)
            rows[i] = row
    return Graph._from_rows(rows)


# -- theta graphs ------------------------------------------------------


@dataclass(frozen=True)
class ThetaSpec:
    """Path lengths (j, k, l) of a theta graph, j <= k <= l.

    Two internally disjoint paths of length 1 would form a doubled edge, so
    (1, 1, *) is rejected.
    """

    j: int
    k: int
    l: int

    def __post_init__(self):
        if not all(type(x) is int for x in (self.j, self.k, self.l)):
            raise InvalidThetaSpecError(f"non-integer lengths {(self.j, self.k, self.l)}")
        if self.j < 1:
            raise InvalidThetaSpecError(f"path lengths must be positive: {(self.j, self.k, self.l)}")
        if not self.j <= self.k <= self.l:
            raise InvalidThetaSpecError(f"lengths must satisfy j <= k <= l: {(self.j, self.k, self.l)}")
        if self.j == 1 and self.k == 1:
            raise InvalidThetaSpecError("two paths of length 1 would double the pole edge")
        if self.order > MAX_VERTICES:
            raise CapacityError(f"theta{(self.j, self.k, self.l)} has {self.order} vertices")

    @property
    def order(self) -> int:
        return self.j + self.k + self.l - 1

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.j, self.k, self.l)

    def __str__(self):
        return f"theta({self.j},{self.k},{self.l})"


def theta(spec: ThetaSpec) -> Graph:
    """Theta graph with poles 0 and 1 and the internal vertices of the three
    paths laid out in spec order.  The labeling is a convention of this
    library; callers should compare up to isomorphism."""
    edges = []
    nxt = 2
    for length in spec.as_tuple():
        if length == 1:
            edges.append((0, 1))
            continue
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(spec.order, edges)


def theta_graph(j: int, k: int, l: int) -> Graph:
    return theta(ThetaSpec(j, k, l))


def classify_theta(g: Graph) -> ThetaSpec | None:
    """Return the ThetaSpec of g if g is a theta graph, else None.

    A theta graph is two degree-3 poles joined by three internally disjoint
    paths whose internal vertices all have degree 2.  Graphs with the same
    degree sequence but a cycle hanging off one pole (dumbbells) are rejected
    by walking the chains.

    Every vertex but the poles has degree 2, so each walk from s ends at s
    or at t, and the three chains that end at t are internally disjoint.
    They cover every vertex exactly when j + k + l - 1 == n, which is then
    also exactly when g is connected.
    """
    degs = [g.degree(v) for v in range(g.n)]
    poles = [v for v in range(g.n) if degs[v] == 3]
    if len(poles) != 2 or any(d != 2 for v, d in enumerate(degs) if v not in poles):
        return None
    s, t = poles
    lengths = []
    for first in g.neighbors(s):
        prev, cur, length = s, first, 1
        while cur != t:
            if cur == s:
                return None
            step = g.adj[cur] & ~(1 << prev)
            prev, cur = cur, step.bit_length() - 1
            length += 1
        lengths.append(length)
    j, k, l = sorted(lengths)
    if j + k + l - 1 != g.n:
        return None
    return ThetaSpec(j, k, l)


# -- named generators --------------------------------------------------


def path_graph(k: int) -> Graph:
    _check_size(k, 1)
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    _check_size(k, 3)
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(n: int) -> Graph:
    _check_size(n, 1)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """K_{1,k} with the k leaves first and the center labeled last."""
    _check_size(k + 1, 2)
    return Graph(k + 1, [(i, k) for i in range(k)])


def wheel_graph(k: int) -> Graph:
    """C_k joined to one hub; rim 0..k-1, hub labeled last.  Needs k >= 3."""
    _check_size(k + 1, 4)
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return Graph(k + 1, edges)


def fan_graph(k: int) -> Graph:
    """P_k joined to one apex; path 0..k-1, apex labeled last.  Needs k >= 1."""
    _check_size(k + 1, 2)
    edges = [(i, i + 1) for i in range(k - 1)] + [(i, k) for i in range(k)]
    return Graph(k + 1, edges)


def diamond_graph() -> Graph:
    """K_4 minus one edge; degree sequence (3, 3, 2, 2)."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def kappa_graph() -> Graph:
    """K_{2,3} with one edge subdivided, on 6 vertices."""
    return theta_graph(2, 2, 3)


def house_graph() -> Graph:
    """C_5 plus one chord: square a,b,d,e with roof c over b and d."""
    a, b, c, d, e = range(5)
    return Graph(5, [(a, b), (b, d), (d, e), (e, a), (b, c), (c, d)])


def paw_graph() -> Graph:
    """Triangle with one pendant vertex; its line graph is the diamond."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def obstruction_t_graph() -> Graph:
    """The 9-vertex minimal non-realizable graph that is not a theta graph.

    Three internally disjoint pole-to-pole paths of lengths 3, 3, 4 plus one
    chord between the first internal vertex of one length-3 path and the
    second internal vertex of the other.
    Vertex order: X, A1, A2, B1, B2, D1, D2, D3, Y.
    """
    X, A1, A2, B1, B2, D1, D2, D3, Y = range(9)
    return Graph(
        9,
        [
            (X, A1), (A1, A2), (A2, Y),
            (X, B1), (B1, B2), (B2, Y),
            (X, D1), (D1, D2), (D2, D3), (D3, Y),
            (A1, B2),
        ],
    )


def _check_size(n: int, minimum: int) -> None:
    if n < minimum:
        raise InvalidParameterError(f"size {n} below minimum {minimum}")
    if n > MAX_VERTICES:
        raise CapacityError(f"size {n} exceeds capacity {MAX_VERTICES}")
