"""Isomorphism testing by color refinement plus backtracking.

``canonical_form`` relabels a graph so that isomorphic graphs map to equal
labeled graphs.  The partition is refined by neighbor-color multisets; when
it stops short of discrete, the first non-singleton cell is split by
individualizing each of its vertices in turn and the completion with the
smallest edge mask (see ``graphs``) is kept.  Exponential in the worst case,
which is fine at the scales used here (at most a few dozen vertices, mostly
trees-with-cycles).
"""
from __future__ import annotations

from .graphs import Graph, bits, star_graph


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Stable coloring: repeatedly split classes by neighbor color multisets."""
    n = g.n
    while True:
        sig = []
        for v in range(n):
            neigh = sorted(colors[u] for u in bits(g.adj[v]))
            sig.append((colors[v], tuple(neigh)))
        order = sorted(range(n), key=lambda v: sig[v])
        new = [0] * n
        c = 0
        for i, v in enumerate(order):
            if i > 0 and sig[v] != sig[order[i - 1]]:
                c += 1
            new[v] = c
        if new == colors:
            return colors
        colors = new


def _canonical(g: Graph) -> tuple[int, list[int]]:
    """Edge mask and relabeling of the smallest completion: ``(key, perm)``."""
    n = g.n
    m2 = sum(row.bit_count() for row in g.adj)
    if m2 == 0 or m2 == n * (n - 1):
        # empty and complete graphs are fixed by every relabeling
        return g._edge_mask(), list(range(n))
    best: tuple[int, list[int]] | None = None

    def descend(colors: list[int]) -> None:
        nonlocal best
        colors = _refine(g, colors)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            # a discrete coloring is a relabeling: colors[v] is v's new index
            key = g.relabel(colors)._edge_mask()
            if best is None or key < best[0]:
                best = (key, colors)
            return
        for v in target:
            child = [2 * c for c in colors]
            child[v] -= 1
            descend(child)

    descend([0] * n)
    return best


def canonical_form(g: Graph) -> tuple[Graph, list[int]]:
    """Canonical relabeling of ``g``.

    Returns ``(canon, perm)`` where ``perm[v]`` is the canonical index of
    vertex ``v`` and ``canon == g.relabel(perm)``.  Two graphs are isomorphic
    exactly when their canonical graphs are equal.
    """
    perm = _canonical(g)[1]
    return g.relabel(perm), perm


def canonical_key(g: Graph) -> tuple[int, int]:
    """``(n, edge mask)`` of the canonical graph: equal exactly for
    isomorphic graphs, and ``Graph._from_mask(*canonical_key(g))`` is
    ``canonical_form(g)[0]``."""
    return g.n, _canonical(g)[0]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_key(g) == canonical_key(h)


def contains_induced(g: Graph, h: Graph) -> bool:
    """True iff some vertex subset of g induces a copy of h.

    Backtracking over injective maps with adjacency and degree pruning.
    The pattern is ordered so each placed vertex touches an earlier one
    whenever h is connected.
    """
    if h.n > g.n:
        return False
    order = _connect_order(h)
    g_deg = [g.degree(v) for v in range(g.n)]
    h_deg = [h.degree(v) for v in range(h.n)]
    image = [-1] * h.n
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        if i == len(order):
            return True
        hv = order[i]
        for gv in range(g.n):
            bit = 1 << gv
            if used & bit or g_deg[gv] < h_deg[hv]:
                continue
            row = g.adj[gv]
            ok = True
            for hu in order[:i]:
                gu = image[hu]
                if bool(row >> gu & 1) != bool(h.adj[hv] >> hu & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[hv] = gv
            used |= bit
            if place(i + 1):
                return True
            used &= ~bit
            image[hv] = -1
        return False

    return place(0)


def _connect_order(h: Graph) -> list[int]:
    start = max(range(h.n), key=h.degree)
    order = [start]
    placed = 1 << start
    while len(order) < h.n:
        cand = [v for v in range(h.n) if not placed >> v & 1]
        touching = [v for v in cand if h.adj[v] & placed]
        pick = max(touching or cand, key=h.degree)
        order.append(pick)
        placed |= 1 << pick
    return order


def is_diamond_free(g: Graph) -> bool:
    """True iff g has no induced diamond (K_4 minus an edge): no edge uv has
    two non-adjacent common neighbours."""
    adj = g.adj
    for u, v in g.edges():
        common = adj[u] & adj[v]
        for w in bits(common):
            if common & ~adj[w] & ~(1 << w):
                return False
    return True


def is_claw_free(g: Graph) -> bool:
    return not contains_induced(g, star_graph(3))
