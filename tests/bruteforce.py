"""Independent oracles used to freeze expected values.

Everything here goes by exhaustive enumeration (power sets, all
permutations) and never calls the code paths under test, so a test can
check the fast implementation against these on small instances.
"""
from __future__ import annotations

import itertools
import random

from islide import Graph


def brute_maximal_independent_sets(g: Graph) -> set[int]:
    """Power-set scan: independent sets with no addable vertex."""
    out = set()
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            mask = sum(1 << v for v in combo)
            if any(g.adj[u] & mask for u in combo):
                continue
            closed = mask
            for u in combo:
                closed |= g.adj[u]
            if closed == g.full_mask():
                out.add(mask)
    return out


def brute_slide_rows(g: Graph, family: list[int]) -> list[int]:
    """Skeleton rows over family (in the given order), checking every pair
    of sets as vertex sets: one vertex leaves, one enters, along an edge."""
    edges = set(g.edges())
    members = [{v for v in range(g.n) if s >> v & 1} for s in family]
    rows = [0] * len(family)
    for a, b in itertools.combinations(range(len(family)), 2):
        left = members[a] - members[b]
        entered = members[b] - members[a]
        if len(left) == len(entered) == 1:
            x, y = left.pop(), entered.pop()
            if (min(x, y), max(x, y)) in edges:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def brute_labeled_graphs(n: int):
    """Every labeled graph on n vertices, in the scan's order: bit i of the
    counter decides the i-th pair of the column-major upper triangle."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def brute_graph6(g: Graph) -> str:
    """graph6 bit by bit from the published layout (McKay, formats.txt):
    N(n) is one byte n + 63 for n <= 62, else 126 and n as three 6-bit
    bytes; then x(0,1) x(0,2) x(1,2) x(0,3) x(1,3) x(2,3) ..., padded with
    zeros to a multiple of 6, each group of 6 bits plus 63 as one byte."""
    n = g.n
    size = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    stream = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    groups = [stream[k:k + 6] for k in range(0, len(stream), 6)]
    body = [sum(bit << (5 - pos) for pos, bit in enumerate(group)) for group in groups]
    return "".join(chr(x + 63) for x in size + body)


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations check; n <= 8 or so."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    ge = set(g.edges())
    he = _sym(h)
    for perm in itertools.permutations(range(g.n)):
        if all((perm[u], perm[v]) in he for u, v in ge):
            return True
    return False


def _sym(h: Graph) -> set[tuple[int, int]]:
    out = set()
    for u, v in h.edges():
        out.add((u, v))
        out.add((v, u))
    return out


def brute_contains_induced(g: Graph, h: Graph) -> bool:
    for combo in itertools.combinations(range(g.n), h.n):
        mask = sum(1 << v for v in combo)
        sub, _ = g.induced(mask)
        if brute_is_isomorphic(sub, h):
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
