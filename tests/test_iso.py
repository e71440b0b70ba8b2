import random
import time

from hypothesis import given, settings, strategies as st

from islide import (
    Graph,
    bits,
    canonical_form,
    canonical_key,
    cartesian_product,
    complete_graph,
    contains_induced,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    is_claw_free,
    is_diamond_free,
    is_isomorphic,
    obstruction_t_graph,
    star_graph,
    theta_graph,
    wheel_graph,
)
from islide import iso
from islide.search import _class_levels

from bruteforce import (
    brute_contains_induced,
    brute_is_isomorphic,
    random_graph,
    random_permutation,
    reference_canonical,
    rook_graph,
    shrikhande_graph,
)


def test_canonical_invariant_under_relabeling():
    rng = random.Random(5)
    graphs = [
        cycle_graph(5),
        wheel_graph(6),
        theta_graph(2, 3, 4),
        random_graph(rng, 9, 0.4),
        random_graph(rng, 12, 0.25),
    ]
    for g in graphs:
        key = canonical_key(g)
        for _ in range(100):
            perm = random_permutation(rng, g.n)
            assert canonical_key(g.relabel(perm)) == key


def test_canonical_form_is_relabeling():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        canon, perm = canonical_form(g)
        assert canon == g.relabel(perm)


def test_symmetric_graphs_match_their_relabelings():
    # from 1,296 automorphisms (K3 x K3 x K3) to 2 * 62! (the last): the
    # search must stay small on them, not visit a leaf per automorphism
    k2, k3, c4 = complete_graph(2), complete_graph(3), cycle_graph(4)
    q5 = k2
    for _ in range(4):
        q5 = cartesian_product(q5, k2)
    four_c4 = disjoint_union(disjoint_union(c4, c4), disjoint_union(c4, c4))
    graphs = [
        q5,
        four_c4,
        cartesian_product(cartesian_product(k3, k3), k3),
        Graph(10, [(0, 1)]),
        Graph(30, [(0, 1)]),
        Graph(64, [(0, 1)]),
    ]
    rng = random.Random(4)
    for g in graphs:
        start = time.perf_counter()
        key = canonical_key(g)
        assert time.perf_counter() - start < 2.0
        h = g.relabel(random_permutation(rng, g.n))
        assert canonical_key(h) == key
        start = time.perf_counter()
        assert is_isomorphic(g, h)
        assert time.perf_counter() - start < 2.0
        canon, perm = canonical_form(h)
        assert canon == h.relabel(perm) == Graph._from_mask(*key)


def test_rook_graph_is_not_shrikhande():
    # both strongly regular (16, 6, 2, 2): refinement alone cannot tell them apart
    rook, shrikhande = rook_graph(4), shrikhande_graph()
    assert rook.degree_sequence() == shrikhande.degree_sequence()
    assert is_isomorphic(rook, shrikhande) is False
    assert is_isomorphic(shrikhande, shrikhande.relabel(random_permutation(random.Random(6), 16)))


def test_is_isomorphic_separates_the_classes_on_7_vertices():
    # classes that share a degree sequence pass every prefilter: each is
    # matched against a relabelling of every class of its group, itself included
    rng = random.Random(7)
    groups = {}
    for mask in dict(_class_levels(7, False))[7]:
        g = Graph._from_mask(7, mask)
        groups.setdefault(g.degree_sequence(), []).append(g)
    pairs = 0
    for group in groups.values():
        for a in group:
            for b in group:
                assert is_isomorphic(a, b.relabel(random_permutation(rng, 7))) is (a is b)
                pairs += 1
    assert pairs == 7608


def test_canonical_matches_reference_on_every_class_on_7_vertices():
    rng = random.Random(71)
    level = dict(_class_levels(7, False))[7]
    assert len(level) == 1044
    for mask in level:
        g = Graph._from_mask(7, mask).relabel(random_permutation(rng, 7))
        assert iso._canonical(g)[:2] == reference_canonical(g)


def test_direct_first_round_matches_refining_the_individualized_cell():
    # at every node of every class's tree on up to 6 vertices, individualizing
    # any vertex of any non-singleton cell by the direct split and then
    # _refine must give what _refine makes of the rest of the cell moved
    checked = 0
    for n, level in _class_levels(6, False):
        for mask in level:
            g = Graph._from_mask(n, mask)
            nbrs = [list(bits(row)) for row in g.adj]
            color, cend = [0] * n, [0] * n
            cend[0] = n
            iso._refine(nbrs, g.adj, color, cend, list(range(n)))
            stack = [(color, cend)]
            while stack:
                color, cend = stack.pop()
                cells = [[v for v in range(n) if color[v] == s]
                         for s in sorted(set(color)) if cend[s] - s > 1]
                for i, cell in enumerate(cells):
                    for w in cell:
                        s = color[w]
                        want_color, want_cend = color[:], cend[:]
                        rest = [v for v in cell if v != w]
                        for v in rest:
                            want_color[v] = s + 1
                        want_cend[s], want_cend[s + 1] = s + 1, cend[s]
                        iso._refine(nbrs, g.adj, want_color, want_cend, rest)
                        got_color, got_cend, moved = iso._individualize(g.adj, color, cend, cell, w)
                        iso._refine(nbrs, g.adj, got_color, got_cend, moved)
                        assert (got_color, got_cend) == (want_color, want_cend), (n, mask, w)
                        checked += 1
                        if i == 0:
                            # the walk individualizes in the first non-singleton cell
                            stack.append((want_color, want_cend))
    assert checked == 6727


def _check_degree_partition(g):
    # the direct root round, refined, must give what _refine makes of the
    # unit partition with every vertex moved; unrefined, each vertex's color
    # is the number of vertices of smaller degree and its cell ends after
    # those of equal degree
    n = g.n
    nbrs = [list(bits(row)) for row in g.adj]
    want_color, want_cend = [0] * n, [0] * n
    want_cend[0] = n
    iso._refine(nbrs, g.adj, want_color, want_cend, list(range(n)))
    color, cend, moved = iso._degree_partition(nbrs)
    degree = [len(vs) for vs in nbrs]
    for v in range(n):
        assert color[v] == sum(d < degree[v] for d in degree)
        assert cend[color[v]] == sum(d <= degree[v] for d in degree)
    assert sorted(moved) == [v for v in range(n) if color[v]]
    iso._refine(nbrs, g.adj, color, cend, moved)
    assert (color, cend) == (want_color, want_cend), g.edges()


def test_degree_partition_matches_refining_the_unit_partition():
    checked = 0
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            _check_degree_partition(Graph._from_mask(n, mask))
            checked += 1
    assert checked == 1099


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(0, 3), st.booleans(), st.integers(0, 2**32), st.floats(0, 1))
def test_degree_partition_matches_refining_the_unit_partition_property(n, isolated, regular,
                                                                       seed, p):
    # up to 12 vertices: a random or a circulant (regular) graph on n, plus
    # `isolated` isolated vertices, relabelled
    rng = random.Random(seed)
    if regular:
        rows = [0] * n
        for d in range(1, n // 2 + 1):
            if rng.random() < p:
                for v in range(n):
                    rows[v] |= 1 << (v + d) % n | 1 << (v - d) % n
        g = Graph._from_rows(rows)
    else:
        g = random_graph(rng, n, p)
    g = disjoint_union(g, Graph(isolated)) if isolated else g
    _check_degree_partition(g.relabel(random_permutation(rng, g.n)))


def test_twin_transpositions_fix_the_graph():
    # (u v) is an automorphism exactly when u and v are twins, so the
    # transpositions must join exactly the pairs whose swap fixes g
    rng = random.Random(13)
    graphs = [Graph._from_mask(n, m) for n, level in _class_levels(6, False) for m in level]
    graphs += [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(200)]
    graphs += [star_graph(5), complete_graph(4), Graph(5, [(0, 1)])]
    for g in graphs:
        n = g.n
        found = set()
        for gamma, support in iso._twins(g.adj):
            assert g.relabel(gamma) == g
            u, v = (x for x in range(n) if gamma[x] != x)
            assert support == 1 << u | 1 << v and gamma[u] == v and gamma[v] == u
            found.add(frozenset((u, v)))
        joined = {v: {v} for v in range(n)}
        for u, v in found:
            merged = joined[u] | joined[v]
            for x in merged:
                joined[x] = merged
        for u in range(n):
            for v in range(u + 1, n):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                assert (v in joined[u]) is (g.relabel(swap) == g), (g.edges(), u, v)


def test_iso_positive_examples():
    rng = random.Random(2)
    c5 = cycle_graph(5)
    assert is_isomorphic(c5, c5.relabel(random_permutation(rng, 5)))
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert is_isomorphic(theta_graph(2, 2, 2), k23)


def test_theta_234_vs_225_not_isomorphic():
    g = theta_graph(2, 3, 4)
    h = theta_graph(2, 2, 5)
    assert g.degree_sequence() == h.degree_sequence()
    assert brute_is_isomorphic(g, h) is False
    assert is_isomorphic(g, h) is False


def test_iso_against_bruteforce_random():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, n, rng.random())
        assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)
        perm = random_permutation(rng, n)
        assert is_isomorphic(g, g.relabel(perm))


def test_contains_induced_examples():
    assert contains_induced(complete_graph(4), diamond_graph()) is False
    assert contains_induced(theta_graph(1, 2, 4), diamond_graph()) is False
    assert brute_contains_induced(theta_graph(1, 2, 4), diamond_graph()) is False
    assert contains_induced(wheel_graph(5), diamond_graph()) is True
    assert contains_induced(star_graph(3), star_graph(3)) is True


def test_contains_induced_against_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        h = random_graph(rng, rng.randint(1, 4), rng.random())
        assert contains_induced(g, h) == brute_contains_induced(g, h)


def test_obstruction_t_has_no_exception_theta_induced():
    t = obstruction_t_graph()
    for jkl in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 3, 3)]:
        assert contains_induced(t, theta_graph(*jkl)) is False


def test_free_wrappers():
    assert is_diamond_free(cycle_graph(7))
    assert not is_diamond_free(wheel_graph(5))
    assert is_claw_free(cycle_graph(7))
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(theta_graph(1, 2, 5))
    assert is_diamond_free(theta_graph(1, 2, 5))


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32), st.floats(0, 1))
def test_diamond_free_matches_bruteforce(n, seed, p):
    g = random_graph(random.Random(seed), n, p)
    assert is_diamond_free(g) == (not brute_contains_induced(g, diamond_graph()))
