"""Line-graph roots via Krausz partitions, and the seeds they provide.

A graph h is a line graph exactly when its edges partition into cliques
with every vertex lying in at most two of them (a Krausz partition).  The
root graph has one vertex per clique, plus a singleton cell for each vertex
of h in only one clique; two root vertices are adjacent when their cells
share a vertex of h.  Each vertex of h then lies in exactly two cells, so it
is an edge of the root, and the line graph of the root is h again, via that
correspondence.

The partition search passes its state down as vertex bitmasks, by value,
so backtracking undoes nothing; the root's rows are unions of incidence
masks.
"""
from __future__ import annotations

from .errors import DiamondFoundError, NotALineGraphError, NotConnectedError
from .graphs import Graph, bits, complete_graph, star_graph
from .iso import is_diamond_free


def krausz_partition(h: Graph) -> list[int] | None:
    """Partition E(h) into cliques with each vertex in at most two parts.

    Returns the parts as vertex masks (each part carries all edges inside
    its vertex set), or None when no such partition exists.  Backtracking
    over the lowest uncovered edge uv: its part holds u, v and every common
    neighbour but at most one (were two, w and x, left out, the other parts
    of u and of v would both hold the edge wx), tried largest first so stars
    and triangles resolve the way line-graph roots expect.  ``left[w]``
    holds the neighbours of w that share no part with it yet, so uv joins
    the first u with ``left[u]`` nonzero to its lowest bit v.
    """

    def solve(left: list[int], once: int, twice: int) -> list[int] | None:
        u = next((w for w, row in enumerate(left) if row), None)
        if u is None:
            return []
        v = (left[u] & -left[u]).bit_length() - 1
        common = h.adj[u] & h.adj[v]
        whole = 1 << u | 1 << v | common
        # largest first, then by mask: leaving out a higher w gives a smaller mask
        for cand in [whole] + [whole ^ 1 << w for w in sorted(bits(common), reverse=True)]:
            # a feasible part is a clique of uncovered edges on vertices in one part at most
            if cand & twice or any(cand & ~left[w] != 1 << w for w in bits(cand)):
                continue
            rest = solve([row & ~cand if cand >> w & 1 else row for w, row in enumerate(left)],
                         once | cand, twice | once & cand)
            if rest is not None:
                return [cand] + rest
        return None

    return solve(list(h.adj), 0, 0)


def line_graph_root(h: Graph) -> Graph:
    """A graph F with line_graph(F) isomorphic to h.

    K_3 has two roots (itself and the claw); the triangle-free claw is
    preferred.  Raises NotALineGraphError when no Krausz partition exists.
    The root's vertices are the parts, then the singletons in vertex order.
    """
    if not h.is_connected():
        raise NotConnectedError("root recovery needs a connected graph")
    if h.n == 1:
        return complete_graph(2)
    if h.n == 3 and h.edge_count() == 3:
        return star_graph(3)
    parts = krausz_partition(h)
    if parts is None:
        raise NotALineGraphError("no Krausz partition: not a line graph")
    once = twice = 0
    for p in parts:
        once, twice = once | p, twice | once & p
    cells = parts + [1 << w for w in bits(once & ~twice)]
    at = [0] * h.n   # at[w]: the two cells that hold w, a root edge
    for i, cell in enumerate(cells):
        for w in bits(cell):
            at[w] |= 1 << i
    rows = [0] * len(cells)
    for pair in at:
        for i in bits(pair):
            rows[i] |= pair
    return Graph._from_rows(row ^ 1 << i for i, row in enumerate(rows))


def seed_from_line_graph(h: Graph) -> Graph:
    """Seed graph G with i-graph isomorphic to h, for connected diamond-free h.

    Complete graphs are their own seeds.  Otherwise the root F of h is
    triangle-free, so every edge of F is a maximal clique, the complement of
    F is well-covered with i = alpha = 2, and its i-graph is L(F) = h.
    """
    if not h.is_connected():
        raise NotConnectedError("seed construction needs a connected graph")
    if not is_diamond_free(h):
        raise DiamondFoundError("an induced K_4 minus an edge rules out any seed")
    if h.edge_count() == h.n * (h.n - 1) // 2:
        return h
    root = line_graph_root(h)
    return root.complement()
