import pytest

from islide import (
    DiamondFoundError,
    Graph,
    NotALineGraphError,
    NotConnectedError,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    i_graph,
    independence_report,
    is_isomorphic,
    krausz_partition,
    line_graph,
    line_graph_root,
    paw_graph,
    path_graph,
    seed_from_line_graph,
    star_graph,
    theta_graph,
)
from islide.search import _class_levels


def test_krausz_partition_covers_edges():
    for g in (paw_graph(), cycle_graph(5), theta_graph(1, 2, 4)):
        parts = krausz_partition(g)
        assert parts is not None
        covered = set()
        for p in parts:
            vs = [v for v in range(g.n) if p >> v & 1]
            for i, u in enumerate(vs):
                for v in vs[i + 1:]:
                    assert g.has_edge(u, v)
                    assert (u, v) not in covered
                    covered.add((u, v))
        assert covered == set(g.edges())
        usage = [sum(1 for p in parts if p >> v & 1) for v in range(g.n)]
        assert all(c <= 2 for c in usage)


def test_claw_has_no_partition():
    assert krausz_partition(star_graph(3)) is None
    with pytest.raises(NotALineGraphError):
        line_graph_root(star_graph(3))


def test_roots_of_small_graphs():
    assert is_isomorphic(line_graph_root(diamond_graph()), paw_graph())
    assert is_isomorphic(line_graph_root(complete_graph(3)), star_graph(3))
    assert is_isomorphic(line_graph_root(complete_graph(1)), complete_graph(2))
    root = line_graph_root(cycle_graph(6))
    assert is_isomorphic(line_graph(root), cycle_graph(6))


def test_root_roundtrip_on_line_graphs():
    for f in (path_graph(5), cycle_graph(7), star_graph(4), theta_graph(2, 3, 3)):
        h = line_graph(f)
        root = line_graph_root(h)
        assert is_isomorphic(line_graph(root), h)


def test_line_of_triangle_free_has_no_diamond_sweep():
    # exhaustively for 4..5 vertices, one graph per class: L(g) contains an
    # induced diamond exactly when g has a triangle
    from islide import contains_induced

    checked = 0
    for n, level in _class_levels(5, connected_only=True):
        for g in (Graph._from_mask(n, mask) for mask in level if n >= 4):
            got = contains_induced(line_graph(g), diamond_graph())
            assert got == g.has_triangle()
            checked += 1
    assert checked == 6 + 21  # connected classes on 4 and 5 vertices


def test_line_diamond_law_sampled_6_7():
    import random

    from islide import contains_induced
    from bruteforce import random_graph

    rng = random.Random(73)
    checked = 0
    while checked < 250:
        n = rng.choice((6, 7))
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if not g.is_connected():
            continue
        checked += 1
        got = contains_induced(line_graph(g), diamond_graph())
        assert got == g.has_triangle()


def test_seed_from_cycle():
    g = seed_from_line_graph(cycle_graph(6))
    assert is_isomorphic(g, cycle_graph(6).complement())
    sg = i_graph(g)
    assert is_isomorphic(sg.skeleton, cycle_graph(6))


def test_seed_from_claw_free_diamond_free():
    h = theta_graph(1, 2, 4)
    g = seed_from_line_graph(h)
    rep = independence_report(g)
    assert rep.i == rep.alpha == 2
    assert rep.well_covered
    assert is_isomorphic(i_graph(g).skeleton, h)


def test_seed_rejects_diamond():
    with pytest.raises(DiamondFoundError):
        seed_from_line_graph(diamond_graph())


def test_seed_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        seed_from_line_graph(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(NotConnectedError, match="root recovery needs a connected graph"):
        line_graph_root(disjoint_union(complete_graph(2), complete_graph(2)))


def test_complete_graph_is_its_own_seed():
    g = seed_from_line_graph(complete_graph(4))
    assert g == complete_graph(4)


def test_seed_from_large_clique_line_graph():
    # K_30 plus a pendant vertex is the line graph of a 30-leaf star with one
    # leaf extended by an edge.  The Krausz cell of an edge inside K_30 is
    # forced to be all of K_30; listing the 2^28 cliques through the edge
    # instead would exhaust memory.
    h = Graph(31, complete_graph(30).edges() + [(0, 30)])
    g = seed_from_line_graph(h)
    assert g.n == 32
    rep = independence_report(g)
    assert rep.i == rep.alpha == 2
    sg = i_graph(g)
    assert sg.node_count() == 31
    assert sg.skeleton.degree_sequence() == h.degree_sequence()


def test_seed_sweep_small_line_graphs():
    # every connected triangle-free root F on up to 5 vertices, one per
    # class, gives a seed complement(F) whose i-graph is L(F)
    checked = 0
    for n, level in _class_levels(5, connected_only=True):
        for f in (Graph._from_mask(n, mask) for mask in level if n > 1):
            if f.has_triangle():
                continue
            checked += 1
            target = line_graph(f)
            g = f.complement()
            rep = independence_report(g)
            assert rep.i == rep.alpha == 2 or f.n == 2
            assert is_isomorphic(i_graph(g).skeleton, target)
    assert checked == 11  # connected triangle-free graphs on 2..5 vertices: 1+1+3+6
