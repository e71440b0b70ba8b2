"""Isomorphism testing by color refinement plus backtracking.

``canonical_form`` relabels a graph so that isomorphic graphs map to equal
labeled graphs.  The partition is refined by neighbor-color multisets; when
it stops short of discrete, the first non-singleton cell is split by
individualizing each of its vertices in turn, and of all the discrete
colorings (leaves) this tree reaches, the first with the smallest edge mask
(see ``graphs``) is kept.

The search prunes the tree without changing that choice.  Two leaves with
equal edge masks give an automorphism, which is kept.  A vertex of the
target cell is skipped when an automorphism fixing the individualized
prefix maps an earlier searched vertex onto it (orbit pruning, as in McKay
and Piperno, "Practical graph isomorphism II", 2014), and a leaf equal to
the first or the best leaf sends the search back to where their paths
branch.  Each skipped subtree is the image of one searched earlier, so
every pruned leaf has an equal leaf that comes first, and keys and
relabelings are exactly those of the exhaustive search of earlier releases
(``tests/bruteforce.py`` keeps it as ``reference_canonical``).  That holds
for any true automorphism, not only one found at a leaf, so the search
starts from the transpositions of twins, vertices with equal open or equal
closed neighbourhoods, read off the rows in one pass: the first smallest
leaf is still never pruned.  The automorphisms known and found come back
with the labelling; together they generate the automorphism group, and the
class scan in ``search`` labels one extension per orbit of them.

Refinement re-sorts only the vertices next to a vertex whose color just
changed, and splits a cell with one such vertex without sorting.  The
first round of a node needs no sorting at all.  At the root every vertex's
tuple is its degree many zeros, so the round orders the vertices stably by
degree, the partition McKay and Piperno start from, and it is made directly
from the degrees.  At a child, the parent's partition is stable, so every
vertex of a cell X has as many neighbours in the cell of the individualized
vertex w, and individualizing w changes its tuple only by whether w is one
of them.  The round therefore splits X into X ∩ N(w), keeping X's color,
followed by X − N(w), and it is made directly from w's row.  A leaf's key
is read from the edge list of g, built once per walk.
Highly symmetric graphs stay cheap (Q5 and 4·C4 take milliseconds), since
the leaves visited grow with the automorphisms found, not with the order of
the automorphism group; the worst case is still exponential.

``is_isomorphic`` labels neither graph.  It walks g's tree along its first
path only and then searches h's tree, with the same refinement,
individualization and orbit pruning, for a leaf equal to g's; a node whose
cells differ from those of g's node at the same depth is pruned.  The walk
is isomorphism-invariant, so an isomorphism carries g's path onto a path of
h that passes every comparison, and the answer is exact.  Its worst case is
h's full pruned walk plus one path of g.
"""
from __future__ import annotations

from .graphs import Graph, bits, mask_of, star_graph


def _refine(nbrs: list[list[int]], adj: list[int], color: list[int], cend: list[int],
            moved: list[int]) -> None:
    """Refine an ordered partition in place to its stable coloring.

    Vertex v lies in the cell of color ``color[v]``, and a cell's color is
    its first position, so the cell of color s holds the positions
    ``s .. cend[s] - 1``.  ``moved`` lists the vertices whose color just
    changed.  Each synchronous round orders every cell by the sorted tuple
    of its vertices' neighbour colors and splits it where the tuple changes.
    Only a vertex with a moved neighbour can have a new tuple, and colors
    only grow, so its tuple grows past that of the untouched rest of its
    cell, which keeps the cell's color.  A round therefore sorts only the
    touched vertices, and a cell with one touched vertex splits it off
    unsorted; it stops when nothing moves.
    """
    label = color.__getitem__
    while moved:
        hit = 0
        for v in moved:
            hit |= adj[v]
        touched: dict[int, list[int]] = {}
        while hit:
            low = hit & -hit
            hit ^= low
            u = low.bit_length() - 1
            s = color[u]
            if cend[s] - s > 1:
                if s in touched:
                    touched[s].append(u)
                else:
                    touched[s] = [u]
        # every new tuple is read before any color changes
        pieces = [(s, sorted([(sorted(map(label, nbrs[v])), v) for v in vs]))
                  for s, vs in touched.items() if len(vs) > 1]
        moved = []
        for s, vs in touched.items():
            if len(vs) == 1:
                # one touched vertex beside untouched ones: its tuple is the largest
                v = vs[0]
                e = cend[s]
                cend[s] = color[v] = e - 1
                cend[e - 1] = e
                moved.append(v)
        for s, ranked in pieces:
            e = cend[s]
            lo = e - len(ranked)   # the untouched vertices hold positions s .. lo - 1
            if lo == s:
                # nothing untouched: the least tuples keep the cell's color
                low = ranked[0][0]
                if low == ranked[-1][0]:
                    continue
            else:
                low = None
            start = s
            for i, (sig, v) in enumerate(ranked, lo):
                if sig != low:
                    cend[start] = i
                    start, low = i, sig
                if start != s:
                    color[v] = start
                    moved.append(v)
            cend[start] = e


def _individualize(adj: list[int], color: list[int], cend: list[int], cell: list[int],
                   w: int) -> tuple[list[int], list[int], list[int]]:
    """Child of a node with stable ``color`` and ``cend``: individualize w
    in its cell ``cell`` and make the first refinement round directly.

    Returns ``(color, cend, moved)`` to hand to ``_refine``.  w keeps its
    cell's color s and the rest of the cell takes s + 1.  The parent is
    equitable, so every vertex of a cell X has as many neighbours in the
    old cell of w, and its tuple changes only by whether w is one of them.
    So the round splits X into X ∩ N(w), which keeps X's color x, followed
    by X - N(w), which takes x + |X ∩ N(w)| and is what moved; a cell that
    w's row does not cut stays whole.  That is what ``_refine`` makes of the
    same child with the whole rest of the cell moved, one round earlier.
    """
    s = color[w]
    e = cend[s]
    child = color[:]
    for v in cell:
        child[v] = s + 1
    child[w] = s
    child_cend = cend[:]
    child_cend[s] = s + 1
    child_cend[s + 1] = e
    row = adj[w]
    count = [0] * len(color)    # count[x]: neighbours of w in the cell of color x
    rest = row
    while rest:
        low = rest & -rest
        rest ^= low
        count[child[low.bit_length() - 1]] += 1
    moved = []
    rest = ((1 << len(color)) - 1) & ~row & ~(1 << w)
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        x = child[v]
        c = count[x]
        if c:
            # a neighbour and a non-neighbour of w share the cell: it splits
            if child_cend[x] != x + c:
                child_cend[x + c] = child_cend[x]
                child_cend[x] = x + c
            child[v] = x + c
            moved.append(v)
    return child, child_cend, moved


def _degree_partition(nbrs: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """The root's first refinement round, made directly: ``(color, cend,
    moved)`` to hand to ``_refine``.

    From the unit partition with every vertex moved, ``_refine``'s first
    round gives each vertex the tuple of its degree many zeros, so it orders
    the vertices stably by degree.  The lowest-degree group keeps color 0
    (isolated vertices stay first, a regular graph stays one cell) and every
    other group takes its start position and is what moved.
    """
    n = len(nbrs)
    degree = [len(vs) for vs in nbrs]
    color = [0] * n
    cend = [0] * n
    moved = []
    start = 0
    low = min(degree)
    for i, v in enumerate(sorted(range(n), key=degree.__getitem__)):
        d = degree[v]
        if d != low:
            cend[start] = i
            start, low = i, d
        if start:
            color[v] = start
            moved.append(v)
    cend[start] = n
    return color, cend, moved


def _twins(adj: list[int]) -> list[tuple[list[int], int]]:
    """Transpositions of twins, each with the mask of the two vertices it
    moves: one for each vertex and the last vertex before it with the same
    open or the same closed neighbourhood.  The two kinds of key share one
    dict: an open key N(u) equal to a closed key N[v] would put v in N(u),
    so u in N[v] = N(u), which no row has."""
    n = len(adj)
    last: dict[int, int] = {}
    out = []
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            u = last.get(key)
            last[key] = v
            if u is not None:
                gamma = list(range(n))
                gamma[u], gamma[v] = v, u
                out.append((gamma, 1 << u | 1 << v))
    return out


def _canonical(g: Graph) -> tuple[int, list[int], list[list[int]]]:
    """Edge mask and relabeling of the smallest completion, and automorphisms
    of g: ``(key, perm, gens)``.

    Each ``gamma`` in gens is an automorphism that maps vertex v to
    ``gamma[v]``, so ``g.relabel(gamma) == g``.  They are the twin
    transpositions and the ones the search found from equal leaves, which
    together generate the automorphism group, or for an empty or complete
    graph an n-cycle and a transposition.
    """
    return _walk(g)


def _walk(g: Graph, trail: list | None = None) -> tuple[int, list[int], list[list[int]]]:
    """Search g's individualization tree: ``_canonical`` without ``trail``.

    With ``trail``, the shape of a node at depth d (the cell ends of an
    inner node, the edge mask of a leaf) must equal ``trail[d]``, else its
    subtree is pruned, and a node one deeper than the trail extends it.  The
    search stops at the first leaf that passes and returns its key and
    relabeling; an empty trail thus records the first path.  Leaves that
    fail still give automorphisms, which prune as without a trail.  An
    empty or complete g is answered without a walk, leaving the trail as is.
    """
    n = g.n
    adj = g.adj
    m2 = sum(row.bit_count() for row in adj)
    if m2 == 0 or m2 == n * (n - 1):
        # empty and complete graphs are fixed by every relabeling, and an
        # n-cycle and a transposition generate them all
        gens = [list(range(1, n)) + [0]]
        if n > 2:
            gens.append([1, 0] + list(range(2, n)))
        return g._edge_mask(), list(range(n)), gens if n > 1 else []
    nbrs = []
    for row in adj:
        vs = []
        while row:
            low = row & -row
            row ^= low
            vs.append(low.bit_length() - 1)
        nbrs.append(vs)
    edges = [(u, v) for u, vs in enumerate(nbrs) for v in vs if v > u]
    # edge (p, q) with p > q of a relabeled graph is bit tri[p] + q of its mask
    tri = [p * (p - 1) // 2 for p in range(n)]
    # known automorphisms, each with the mask of the vertices it moves: the
    # twin transpositions, then those found from equal leaves
    gens = _twins(adj)
    first = best = None          # (key, perm, path) of the first and best leaf

    def descend(path: list[int], fixed: int, color: list[int], cend: list[int],
                moved: list[int]) -> int:
        """Search below the node reached by individualizing ``path`` (the
        vertices of mask ``fixed``); return the depth at which the search
        resumes."""
        nonlocal first, best
        _refine(nbrs, adj, color, cend, moved)
        depth = len(path)
        s = 0
        while s < n and cend[s] - s == 1:
            s = cend[s]
        if s == n:
            # a discrete coloring is a relabeling: color[v] is v's new index
            key = 0
            for u, v in edges:
                p = color[u]
                q = color[v]
                key |= 1 << (tri[p] + q if p > q else tri[q] + p)
            if trail is not None and _follows(trail, depth, key):
                best = (key, color, path)
                return -1
            if first is None:
                first = best = (key, color, path)
                return depth - 1
            for seen in (first, best):
                if key == seen[0]:
                    # both leaves relabel g to one graph, so this is an automorphism
                    inv = [0] * n
                    for v, p in enumerate(seen[1]):
                        inv[p] = v
                    gamma = [inv[p] for p in color]
                    gens.append((gamma, mask_of(v for v in range(n) if gamma[v] != v)))
                    # it fixes the shared prefix and maps the subtree this leaf
                    # is in onto the earlier, fully searched one: resume where
                    # the two paths branch
                    d = 0
                    while path[d] == seen[2][d]:
                        d += 1
                    return d
            if key < best[0]:
                best = (key, color, path)
            return depth - 1
        if trail is not None and not _follows(trail, depth, tuple(cend)):
            return depth - 1
        cell = [v for v in range(n) if color[v] == s]
        cell_mask = mask_of(cell)
        # orbits on the target cell of the automorphisms fixing path pointwise,
        # as a union-find whose roots are the least vertices of their orbits;
        # built when the first such automorphism turns up
        root = None
        used = 0
        for w in cell:
            while used < len(gens):
                gamma, support = gens[used]
                used += 1
                if not support & fixed:
                    # it maps the cell onto itself, and its fixed points join nothing
                    if root is None:
                        root = {v: v for v in cell}
                    rest = support & cell_mask
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        v = low.bit_length() - 1
                        a, b = _find(root, v), _find(root, gamma[v])
                        if a != b:
                            root[max(a, b)] = min(a, b)
            if root is not None and _find(root, w) != w:
                # the subtree of an orbit mate searched earlier maps onto this one
                continue
            back = descend(path + [w], fixed | 1 << w, *_individualize(adj, color, cend, cell, w))
            if back < depth:
                return back
        return depth - 1

    descend([], 0, *_degree_partition(nbrs))
    if best is None:
        # the root already differs from the trail
        return -1, [], []
    return best[0], best[1], [gamma for gamma, _ in gens]


def _follows(trail: list, depth: int, shape) -> bool:
    """True when ``shape`` is ``trail[depth]``, or one past its end, where it
    is appended."""
    if depth == len(trail):
        trail.append(shape)
        return True
    return trail[depth] == shape


def _find(root: dict[int, int], v: int) -> int:
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


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
    """True iff g and h are isomorphic.

    After the order, size and degree-sequence prefilters, the walk records
    the cell ends of each node on g's first path and the edge mask of its
    leaf, then searches h's tree for a leaf with that mask, pruning every
    node whose cell ends differ from those at its depth on g's path.  The
    walk is isomorphism-invariant: an isomorphism maps g's tree onto h's
    node for node, so the image of g's path passes every comparison and
    ends at an equal leaf, and each subtree that orbit pruning skips is an
    automorphic image of one searched before.  So the answer is exact, and
    a leaf equal to g's is itself an isomorphism.  The worst case is h's
    full pruned walk plus one path of g, against two full walks for two
    canonical labellings.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    trail: list = []
    key = _walk(g, trail)[0]
    return _walk(h, trail)[0] == key


def contains_induced(g: Graph, h: Graph) -> bool:
    """True iff some vertex subset of g induces a copy of h.

    Backtracking over injective maps in the order of ``_connect_order``, so
    each placed vertex touches an earlier one whenever h is connected.  The
    state is ``used``, the mask of the images so far, passed by value, and
    ``image[hv]``, the bit of the image of hv, which the next try at that
    step overwrites.  A vertex of g can take hv when its degree is at least
    hv's and its neighbours in ``used`` are the images of hv's earlier
    neighbours.
    """
    if h.n > g.n:
        return False
    order = _connect_order(h)
    before = [h.adj[hv] & mask_of(order[:i]) for i, hv in enumerate(order)]   # earlier neighbours
    image = [0] * h.n

    def place(i: int, used: int) -> bool:
        if i == h.n:
            return True
        hv = order[i]
        need = h.adj[hv].bit_count()
        want = 0
        for hu in bits(before[i]):
            want |= image[hu]
        for gv in bits(g.full_mask() & ~used):
            row = g.adj[gv]
            if row & used == want and row.bit_count() >= need:
                image[hv] = 1 << gv
                if place(i + 1, used | 1 << gv):
                    return True
        return False

    return place(0, 0)


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
