import random
import time

from hypothesis import given, settings, strategies as st

from islide import (
    Graph,
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
from islide.search import _class_levels

from bruteforce import (
    brute_contains_induced,
    brute_is_isomorphic,
    random_graph,
    random_permutation,
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
