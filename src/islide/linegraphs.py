"""Line-graph roots via Krausz partitions, and the seeds they provide.

A graph h is a line graph exactly when its edges partition into cliques
with every vertex lying in at most two of them.  The root graph has one
vertex per clique (after padding each once-covered vertex with a singleton
cell); two root vertices are adjacent when their cells share a vertex of h.
Each vertex of h then corresponds to an edge of the root, and the line
graph of the root is h again, via that correspondence.
"""
from __future__ import annotations

from .errors import DiamondFoundError, NotALineGraphError, NotConnectedError
from .graphs import Graph, bits, complete_graph, line_graph, mask_of, star_graph
from .iso import is_diamond_free, is_isomorphic


def _cliques_containing_edge(h: Graph, u: int, v: int) -> list[int]:
    """The cliques that can be the Krausz cell of the edge uv, largest first.

    The cell holds u, v and every common neighbour but at most one: were
    two common neighbours w and x left out, the other cell of u and the
    other cell of v would both hold w and x, and so share the edge wx.
    """
    base = (1 << u) | (1 << v)
    common = h.adj[u] & h.adj[v]
    cells = [base | common] + [base | (common & ~(1 << w)) for w in bits(common)]
    out = [m for m in cells if all(m & ~h.adj[x] == 1 << x for x in bits(m))]
    out.sort(key=lambda m: (-m.bit_count(), m))
    return out


def krausz_partition(h: Graph) -> list[int] | None:
    """Partition E(h) into cliques with each vertex in at most two parts.

    Returns the parts as vertex masks (each part carries all edges inside
    its vertex set), or None when no such partition exists.  Backtracking
    over the lowest uncovered edge; candidate parts are tried largest first
    so stars and triangles resolve the way line-graph roots expect.
    """
    edges = h.edges()
    if not edges:
        return []
    edge_index = {e: i for i, e in enumerate(edges)}
    usage = [0] * h.n
    covered = [False] * len(edges)
    parts: list[int] = []

    def edges_inside(mask: int) -> list[int]:
        idxs = []
        vs = list(bits(mask))
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                idxs.append(edge_index[(vs[a], vs[b])])
        return idxs

    def solve() -> bool:
        try:
            first = covered.index(False)
        except ValueError:
            return True
        u, v = edges[first]
        for cand in _cliques_containing_edge(h, u, v):
            inside = edges_inside(cand)
            if any(covered[i] for i in inside):
                continue
            if any(usage[w] >= 2 for w in bits(cand)):
                continue
            for i in inside:
                covered[i] = True
            for w in bits(cand):
                usage[w] += 1
            parts.append(cand)
            if solve():
                return True
            parts.pop()
            for w in bits(cand):
                usage[w] -= 1
            for i in inside:
                covered[i] = False
        return False

    return parts if solve() else None


def line_graph_root(h: Graph) -> Graph:
    """A graph F with line_graph(F) isomorphic to h.

    K_3 has two roots (itself and the claw); the triangle-free claw is
    preferred.  Raises NotALineGraphError when no Krausz partition exists.
    """
    if not h.is_connected():
        raise NotConnectedError("root recovery needs a connected graph")
    if h.n == 1:
        return complete_graph(2)
    if is_isomorphic(h, complete_graph(3)):
        return star_graph(3)
    parts = krausz_partition(h)
    if parts is None:
        raise NotALineGraphError("no Krausz partition: not a line graph")
    cells = list(parts)
    usage = [0] * h.n
    for p in parts:
        for w in bits(p):
            usage[w] += 1
    for w in range(h.n):
        if usage[w] == 1:
            cells.append(1 << w)
    rows = [0] * len(cells)
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if cells[a] & cells[b]:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph._from_rows(rows)


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
