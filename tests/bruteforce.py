"""Independent oracles used to freeze expected values.

Everything here goes by exhaustive enumeration (power sets, all
permutations, every leaf of a search tree) and never calls the code paths under test, so a test can
check the fast implementation against these on small instances.
"""
from __future__ import annotations

import itertools
import random

from islide import Graph
from islide.graphs import bits


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


def brute_structural_violations(sg) -> list[str]:
    """The slide-graph laws checked pair by pair: a breadth-first search
    from every node gives all distances, each pair is compared with its set
    difference, and every path a-b-c of labeled slides is tested for the
    triangle law with the labels' own vertices."""
    out: list[str] = []
    nodes = sg.nodes
    m = len(nodes)
    skel = sg.skeleton
    nbrs = [[v for v in range(m) if skel.adj[u] >> v & 1] for u in range(m)]

    for a, b, x, y in sg.edges:
        if nodes[a] ^ nodes[b] != (1 << x) | (1 << y):
            out.append(f"edge ({a},{b}) label ({x},{y}) does not match set difference")
        if not sg.base.adj[x] >> y & 1:
            out.append(f"edge ({a},{b}) slides along a non-edge ({x},{y})")

    for a in range(m):
        dist = [-1] * m
        dist[a] = 0
        queue = [a]
        for u in queue:
            for v in nbrs[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for b in range(a + 1, m):
            hamming = (nodes[a] & ~nodes[b]).bit_count()
            d = dist[b]
            if d != -1 and d < hamming:
                out.append(f"distance {d} below set difference {hamming} for nodes {a},{b}")
            if d == 2 and hamming != 2:
                out.append(f"nodes {a},{b} at distance 2 differ in {hamming} vertices")

    moves = {}
    for a, b, x, y in sg.edges:
        moves[(a, b)] = (x, y)
        moves[(b, a)] = (y, x)
    for (a, b), (_, landed) in moves.items():
        for c in nbrs[b]:
            if c == a:
                continue
            departed, _ = moves[(b, c)]
            chord = bool(skel.adj[a] >> c & 1)
            if (landed == departed) != chord:
                out.append(f"triangle law broken on path {a}-{b}-{c}")
    return out


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


def reference_canonical(g: Graph) -> tuple[int, list[int]]:
    """Edge mask and relabeling of the smallest completion: ``(key, perm)``.

    The leaf-exhaustive search: every leaf of the individualization tree is
    relabeled, and the first one with the smallest edge mask wins.
    ``iso._canonical`` prunes this tree by the automorphisms it finds and
    must return exactly the same pair."""
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


def brute_classes(n: int) -> list[Graph]:
    """One labeled graph per isomorphism class on n vertices, the first of
    each class in ``brute_labeled_graphs`` order."""
    reps: list[Graph] = []
    for g in brute_labeled_graphs(n):
        if not any(brute_is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


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


def brute_line_graph(g: Graph) -> Graph:
    """L(g) from the definition: one vertex per edge of g, edges taken in
    lexicographic order, two adjacent when they share an endpoint."""
    es = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
    return Graph(len(es), [(i, j) for j in range(len(es)) for i in range(j) if set(es[i]) & set(es[j])])


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


def brute_automorphism_orbits(g: Graph) -> set[frozenset[int]]:
    """Vertex orbits of every permutation that maps edges to edges; n <= 7
    or so."""
    ge = set(g.edges())
    he = _sym(g)
    auts = [perm for perm in itertools.permutations(range(g.n))
            if all((perm[u], perm[v]) in he for u, v in ge)]
    return {frozenset(perm[v] for perm in auts) for v in range(g.n)}


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


def random_cubic_graph(rng: random.Random, n: int) -> Graph:
    """A uniform 3-regular graph on n (even) vertices: pair up three copies
    of each vertex at random until no loop or double edge appears."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            return Graph(n, sorted(edges))


def house_seed_graph() -> Graph:
    """Path a-b-c plus triangle c,d,e: its five i-sets ac, ad, ae, bd, be
    slide into the house, theta(1,2,3)."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def paley_graph(q: int) -> Graph:
    """Paley graph of a prime q = 1 mod 4: a ~ b when a - b is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(a, b) for b in range(q) for a in range(b) if (b - a) % q in squares])


def rook_graph(k: int) -> Graph:
    """k x k rook's graph: cells of one row or one column are adjacent."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    return Graph(k * k, [(i, j) for j, b in enumerate(cells) for i, a in enumerate(cells[:j])
                         if a[0] == b[0] or a[1] == b[1]])


def shrikhande_graph() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set +-(0,1), +-(1,0), +-(1,1):
    strongly regular with the parameters of the 4 x 4 rook's graph, but not
    isomorphic to it."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph(16, [(i, j) for j, b in enumerate(cells) for i, a in enumerate(cells[:j])
                      if ((b[0] - a[0]) % 4, (b[1] - a[1]) % 4) in steps])


def reference_check_seed(result) -> list[tuple[str, bool, str]]:
    """The ``(name, passed, detail)`` clauses of ``seeds.check_seed`` as it
    was first written: the i-graph and an alpha-graph built from the
    alpha-sets are each compared with the target by ``is_isomorphic``.
    Unlike the oracles above it composes library kernels, which their own
    tests check; what it pins is the clause logic."""
    from islide import ThetaSpec, build_slide_graph, independence_report, is_isomorphic, theta

    gbar, trace = result.gbar, result.trace
    spec = ThetaSpec(*trace.params)
    g = gbar.complement()
    report = independence_report(g)
    target = theta(spec)
    sg = build_slide_graph(g, list(report.i_sets))
    missing = [tag for tag, m in trace.expected_labels.items() if m not in report.i_sets]
    ag = build_slide_graph(g, list(report.alpha_sets))
    iso_a = is_isomorphic(ag.skeleton, target)
    if trace.alpha_equal:
        alpha_clause = ("alpha_graph_isomorphic", iso_a, "alpha-graph matches the theta target")
    else:
        alpha_clause = ("alpha_graph_differs", not iso_a,
                        "alpha-graph must not match the i-graph on these arms")
    return [
        ("i_value", report.i == trace.expected_i,
         f"i(G)={report.i}, expected {trace.expected_i}"),
        ("i_graph_order", sg.node_count() == trace.expected_order,
         f"|V(I(G))|={sg.node_count()}, expected {trace.expected_order}"),
        ("i_graph_isomorphic", is_isomorphic(sg.skeleton, target), f"skeleton vs {spec}"),
        ("labels_present", not missing,
         "all labeled sets found" if not missing else f"missing {missing}"),
        ("alpha_value", report.alpha == trace.expected_alpha,
         f"alpha(G)={report.alpha}, expected {trace.expected_alpha}"),
        alpha_clause,
    ]
