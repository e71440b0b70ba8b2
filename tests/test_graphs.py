import copy
import pickle

import pytest

from islide import (
    CapacityError,
    Graph,
    InvalidParameterError,
    InvalidThetaSpecError,
    ThetaSpec,
    cartesian_product,
    classify_theta,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    fan_graph,
    house_graph,
    i_graph,
    is_isomorphic,
    kappa_graph,
    line_graph,
    obstruction_t_graph,
    path_graph,
    paw_graph,
    star_graph,
    theta_graph,
    wheel_graph,
)
import random

from bruteforce import random_graph, random_permutation


def test_graph_validation():
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(CapacityError):
        Graph(65)
    # a named generator checks its size before it builds the edge list
    with pytest.raises(CapacityError, match="size 65 exceeds capacity 64"):
        path_graph(65)
    for too_small in (lambda: wheel_graph(2), lambda: fan_graph(0)):
        with pytest.raises(InvalidParameterError):
            too_small()


def test_vertex_count_must_be_an_int():
    # True would pass the range check as 1, and 2.0 fail it with a bare TypeError
    for bad in (True, 2.0):
        with pytest.raises(InvalidParameterError, match="not an int"):
            Graph(bad)


def test_wheel_shape():
    w = wheel_graph(4)
    assert w.n == 5
    assert w.degree(4) == 4
    assert all(w.degree(v) == 3 for v in range(4))


def test_diamond_is_k4_minus_edge():
    d = diamond_graph()
    assert d.degree_sequence() == (2, 2, 3, 3)
    assert is_isomorphic(d, theta_graph(1, 2, 2))


def test_house_is_theta_123():
    h = house_graph()
    assert h.n == 5 and h.edge_count() == 6
    assert is_isomorphic(h, theta_graph(1, 2, 3))


def test_kappa_and_k23():
    assert is_isomorphic(kappa_graph(), theta_graph(2, 2, 3))
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert is_isomorphic(k23, theta_graph(2, 2, 2))


def test_theta_counts():
    for j, k, l in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 4, 6), (1, 3, 3)]:
        g = theta_graph(j, k, l)
        assert g.n == j + k + l - 1
        assert g.edge_count() == j + k + l
        deg3 = [v for v in range(g.n) if g.degree(v) == 3]
        assert deg3 == [0, 1]
        assert g.has_edge(0, 1) == (j == 1)


def test_theta_spec_validation():
    with pytest.raises(InvalidThetaSpecError):
        ThetaSpec(1, 1, 4)
    with pytest.raises(InvalidThetaSpecError):
        ThetaSpec(3, 2, 4)
    with pytest.raises(InvalidThetaSpecError):
        ThetaSpec(0, 2, 4)


def test_complement_involution_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        assert g.complement().complement() == g


def test_complement_of_wheel4():
    got = wheel_graph(4).complement()
    expected = Graph(5, [(0, 2), (1, 3)])
    assert got == expected


def test_induced_rejects_masks_outside_graph():
    g = path_graph(3)
    for mask in (0b1000, 0b1111, -1, -2):
        with pytest.raises(InvalidParameterError):
            g.induced(mask)
    with pytest.raises(InvalidParameterError, match="at least one vertex"):
        g.induced(0)
    sub, keep = g.induced(0b101)
    assert keep == [0, 2] and sub.edge_count() == 0


@pytest.mark.parametrize("perm", [
    [0, 0, 2],      # a repeated value
    [0, 1, 3],      # a value >= n
    [0, 1],         # too short
    [0, 1, 2, 3],   # too long
    [0, -1, 2],     # negative
])
def test_relabel_rejects_non_permutations(perm):
    with pytest.raises(InvalidParameterError):
        path_graph(3).relabel(perm)


def test_line_graph_examples():
    assert is_isomorphic(line_graph(paw_graph()), diamond_graph())
    assert is_isomorphic(line_graph(path_graph(4)), path_graph(3))
    assert is_isomorphic(line_graph(star_graph(3)), complete_graph(3))
    with pytest.raises(InvalidParameterError):
        line_graph(Graph(3))


def test_line_graph_degree_sum():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        if g.edge_count() == 0:
            continue
        lg = line_graph(g)
        assert lg.n == g.edge_count()
        expect = sum(g.degree(v) * (g.degree(v) - 1) for v in range(g.n))
        assert sum(lg.degree(v) for v in range(lg.n)) == expect


def test_classify_theta():
    assert classify_theta(theta_graph(2, 3, 5)).as_tuple() == (2, 3, 5)
    assert classify_theta(theta_graph(1, 2, 2)).as_tuple() == (1, 2, 2)
    assert classify_theta(cycle_graph(6)) is None
    assert classify_theta(obstruction_t_graph()) is None
    # dumbbell: two triangles joined by an edge has the theta degree sequence
    dumbbell = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert classify_theta(dumbbell) is None
    # relabeled theta still classifies
    rng = random.Random(11)
    g = theta_graph(3, 3, 4).relabel(random_permutation(rng, 9))
    assert classify_theta(g).as_tuple() == (3, 3, 4)
    # a theta plus a separate cycle has the theta degree sequence but too many vertices
    assert classify_theta(disjoint_union(theta_graph(2, 2, 3), cycle_graph(3))) is None


def test_obstruction_t_shape():
    t = obstruction_t_graph()
    assert t.n == 9 and t.edge_count() == 11
    assert t.degree_sequence() == (2, 2, 2, 2, 2, 3, 3, 3, 3)


def test_union_and_product():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g.n == 4 and g.edge_count() == 2
    p = cartesian_product(complete_graph(2), complete_graph(2))
    assert is_isomorphic(p, cycle_graph(4))
    q3 = cartesian_product(cartesian_product(complete_graph(2), complete_graph(2)), complete_graph(2))
    assert q3.n == 8 and all(q3.degree(v) == 3 for v in range(8))
    # derived graphs are not held to the 64-vertex input capacity
    assert disjoint_union(path_graph(40), path_graph(40)).edge_count() == 78
    assert line_graph(complete_graph(12)).degree_sequence() == (20,) * 66


def test_graphs_pickle_and_copy():
    # a process pool ships graphs to its workers by pickling them; the
    # 243-node skeleton of 5 K3 is above the 64-vertex input capacity, and
    # the slide graph's edges have already been labelled
    g = complete_graph(3)
    for _ in range(4):
        g = disjoint_union(g, complete_graph(3))
    sg = i_graph(g)
    assert sg.skeleton.n == 243 and len(sg.edges) == 243 * 10 // 2
    for x in (sg.skeleton, sg):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and y is not x
    assert copy.deepcopy(sg).edges == sg.edges


def test_connectivity_and_bipartite():
    assert cycle_graph(6).is_bipartite()
    assert not cycle_graph(5).is_bipartite()
    assert not disjoint_union(complete_graph(2), complete_graph(2)).is_connected()
    assert fan_graph(3).is_connected()
    assert complete_graph(3).has_triangle()
    assert not cycle_graph(4).has_triangle()
