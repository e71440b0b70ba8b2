import itertools
import random

import pytest

from islide import (
    Graph,
    InvalidParameterError,
    SetCountCapError,
    complete_graph,
    cycle_graph,
    independence_report,
    maximal_independent_sets,
    mask_of,
    star_graph,
    theta_graph,
    wheel_graph,
)
from islide.seeds import build_theta_seed_complement

from bruteforce import brute_maximal_independent_sets, house_seed_graph, random_graph


def test_star_has_two_maximal_sets():
    got = set(maximal_independent_sets(star_graph(3)))
    assert got == {mask_of([3]), mask_of([0, 1, 2])}


def test_cycle5_brute():
    got = set(maximal_independent_sets(cycle_graph(5)))
    assert got == brute_maximal_independent_sets(cycle_graph(5))
    assert len(got) == 5
    assert all(s.bit_count() == 2 for s in got)


def test_house_seed_isets():
    rep = independence_report(house_seed_graph())
    assert rep.i == 2
    assert set(rep.i_sets) == {mask_of(vs) for vs in ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4))}
    assert rep.well_covered


def test_complete_graph_report():
    for n in (1, 2, 5):
        rep = independence_report(complete_graph(n))
        assert rep.i == rep.alpha == 1
        assert len(rep.i_sets) == n


def test_complement_of_wheel_report():
    rep = independence_report(wheel_graph(4).complement())
    assert rep.i == rep.alpha == 3
    assert len(rep.i_sets) == 4
    # hub (vertex 4) plus one endpoint of each matching edge
    assert all(s >> 4 & 1 for s in rep.i_sets)


def test_matches_bruteforce_random():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        got = set(maximal_independent_sets(g))
        assert got == brute_maximal_independent_sets(g)
        rep = independence_report(g)
        assert rep.i <= rep.alpha


def test_mis_equals_cliques_of_complement():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        h = g.complement()
        cliques = set()
        for r in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), r):
                if any(not h.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                    continue
                mask = mask_of(combo)
                others = [w for w in range(g.n) if not mask >> w & 1]
                if any(all(h.has_edge(w, u) for u in combo) for w in others):
                    continue
                cliques.add(mask)
        assert set(maximal_independent_sets(g)) == cliques


def _bridges(g: Graph) -> list[tuple[int, int]]:
    def component_count(graph: Graph) -> int:
        seen = 0
        parts = 0
        for v in range(graph.n):
            if seen >> v & 1:
                continue
            parts += 1
            frontier = 1 << v
            while frontier:
                seen |= frontier
                grow = 0
                m = frontier
                while m:
                    low = m & -m
                    grow |= graph.adj[low.bit_length() - 1]
                    m ^= low
                frontier = grow & ~seen
        return parts

    base = component_count(g)
    out = []
    for u, v in g.edges():
        pruned = Graph(g.n, [e for e in g.edges() if e != (u, v)])
        if component_count(pruned) > base:
            out.append((u, v))
    return out


def test_bridge_in_complement_forces_small_i():
    rng = random.Random(37)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        gbar = g.complement()
        if not _bridges(gbar):
            continue
        checked += 1
        assert independence_report(g).i <= 2
    assert checked > 20


def test_i_two_iff_complement_edge_off_triangles():
    # the complement must have no isolated vertex (else i(G) = 1) and some
    # edge lying on no triangle
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        gbar = g.complement()
        has_free_edge = any(
            not (gbar.adj[u] & gbar.adj[v]) for u, v in gbar.edges()
        )
        no_isolated = all(gbar.adj[v] for v in range(gbar.n))
        assert (independence_report(g).i == 2) == (no_isolated and has_free_edge)


def test_iset_count_bound_when_i_is_two():
    rng = random.Random(47)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        rep = independence_report(g)
        if rep.i != 2:
            continue
        checked += 1
        bound = n * (n - 1) // 2 - g.edge_count()
        assert len(rep.i_sets) <= bound
    assert checked > 50


def test_set_cap():
    # a perfect matching on 2k vertices has 2^k maximal independent sets
    g = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    with pytest.raises(SetCountCapError):
        maximal_independent_sets(g, cap=10)


def test_set_cap_below_one_is_invalid():
    for cap in (0, -5):
        with pytest.raises(InvalidParameterError):
            maximal_independent_sets(complete_graph(3), cap=cap)


def test_theta_225_alpha_is_four():
    gbar = build_theta_seed_complement(2, 3, 5).gbar
    rep = independence_report(gbar.complement())
    assert rep.i == 3
    assert rep.alpha == 4
