import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from islide import (
    FormatError,
    Graph,
    InvalidParameterError,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    fan_graph,
    build_slide_graph,
    house_graph,
    i_graph,
    alpha_graph,
    independence_report,
    is_isomorphic,
    mask_of,
    max_induced_star_center_degree,
    path_graph,
    slide_graph_from_json,
    slide_graph_to_dot,
    slide_graph_to_json,
    structural_violations,
    theta_graph,
    wheel_graph,
)

from bruteforce import (
    brute_maximal_independent_sets,
    brute_slide_rows,
    brute_structural_violations,
    house_seed_graph,
    random_graph,
)


def test_cycle4_isets_do_not_slide():
    g = cycle_graph(4)
    sg = build_slide_graph(g, [mask_of([0, 2]), mask_of([1, 3])])
    assert sg.node_count() == 2
    assert sg.edges == ()


def test_house_seed_slides_into_house():
    g = house_seed_graph()
    sg = i_graph(g)
    assert sg.node_count() == 5
    assert is_isomorphic(sg.skeleton, house_graph())
    assert is_isomorphic(sg.skeleton, theta_graph(1, 2, 3))


def test_cycle5_igraph_is_cycle5():
    sg = i_graph(cycle_graph(5))
    assert sg.node_count() == 5
    assert is_isomorphic(sg.skeleton, cycle_graph(5))


def test_complete_graph_igraph_is_itself():
    for n in (1, 2, 4, 6):
        sg = i_graph(complete_graph(n))
        assert is_isomorphic(sg.skeleton, complete_graph(n))


def test_mixed_cardinalities_rejected():
    g = path_graph(4)
    with pytest.raises(InvalidParameterError):
        build_slide_graph(g, [mask_of([0]), mask_of([0, 2])])
    with pytest.raises(InvalidParameterError, match="empty set family"):
        build_slide_graph(g, [])
    with pytest.raises(InvalidParameterError, match="outside the graph"):
        build_slide_graph(g, [mask_of([0, 4])])


def test_move_labels_are_slides():
    sg = i_graph(cycle_graph(5))
    for a, b, x, y in sg.edges:
        assert sg.nodes[a] ^ sg.nodes[b] == mask_of([x, y])
        assert sg.base.has_edge(x, y)


def test_structural_invariants_on_standard_instances():
    instances = [
        i_graph(cycle_graph(5)),
        i_graph(house_seed_graph()),
        i_graph(wheel_graph(6).complement()),
        alpha_graph(wheel_graph(6).complement()),
        i_graph(fan_graph(5).complement()),
        i_graph(complete_graph(5)),
    ]
    for sg in instances:
        assert structural_violations(sg) == []


def test_structural_invariants_random():
    rng = random.Random(61)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert structural_violations(i_graph(g)) == []


def _drop_slide(sg, k):
    """sg with its k-th slide removed from the skeleton."""
    a, b, _, _ = sg.edges[k]
    rows = list(sg.skeleton.adj)
    rows[a] &= ~(1 << b)
    rows[b] &= ~(1 << a)
    return dataclasses.replace(sg, skeleton=Graph._from_rows(rows))


def test_structural_invariants_beyond_200_nodes():
    for copies, order in ((5, 243), (6, 729)):
        g = complete_graph(3)
        for _ in range(copies - 1):
            g = disjoint_union(g, complete_graph(3))
        sg = i_graph(g)
        assert sg.node_count() == order
        assert structural_violations(sg) == []
        # the check runs at this size: dropping one slide is reported
        assert structural_violations(_drop_slide(sg, 0))


def test_slide_along_non_edge_is_reported():
    sg = i_graph(cycle_graph(5))
    a, b, x, y = sg.edges[0]
    base = Graph(sg.base.n, [e for e in sg.base.edges() if e != (min(x, y), max(x, y))])
    assert f"edge ({a},{b}) slides along a non-edge ({x},{y})" in structural_violations(
        dataclasses.replace(sg, base=base))


def test_edge_between_sets_two_apart_is_reported():
    # {0,1} and {2,3} differ in two vertices on each side, so no slide joins them
    sg = build_slide_graph(path_graph(4), [mask_of([0, 1]), mask_of([2, 3])])
    forged = dataclasses.replace(sg, skeleton=Graph(2, [(0, 1)]))
    assert structural_violations(forged) == ["distance 1 below set difference 2 for nodes 0,1"]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, present) if keep])


@st.composite
def graphs_with_families(draw):
    g = draw(small_graphs())
    kind = draw(st.sampled_from(["i", "alpha", "any", "subsets"]))
    if kind == "subsets":
        # every k-subset of some vertices: many sets share each (k-1)-subset
        chosen = draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        k = draw(st.integers(1, len(chosen)))
        family = [mask_of(c) for c in itertools.combinations(sorted(chosen), k)]
    elif kind == "any":
        # arbitrary equal-size sets: for maximal independent sets a one-vertex
        # difference already forces the two vertices to be adjacent
        k = draw(st.integers(1, g.n))
        subsets = st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k).map(mask_of)
        family = draw(st.lists(subsets, min_size=1, max_size=12, unique=True))
    else:
        sets = brute_maximal_independent_sets(g)
        size = (min if kind == "i" else max)(s.bit_count() for s in sets)
        family = [s for s in sets if s.bit_count() == size]
    return g, sorted(family)


def _expected_edges(g, family, rows):
    """Labeled edges in (a, b) order from oracle rows, each label read off
    the set difference."""
    def only_in(s, t):
        (v,) = [v for v in range(g.n) if s >> v & 1 and not t >> v & 1]
        return v

    return [
        (a, b, only_in(family[a], family[b]), only_in(family[b], family[a]))
        for a in range(len(family)) for b in range(a + 1, len(family)) if rows[a] >> b & 1
    ]


@settings(max_examples=200, deadline=None)
@given(graphs_with_families())
def test_slide_graph_matches_bruteforce(case):
    g, family = case
    sg = build_slide_graph(g, family)
    rows = brute_slide_rows(g, family)
    assert sg.nodes == tuple(family)
    assert sg.skeleton.adj == tuple(rows)
    assert list(sg.edges) == _expected_edges(g, family, rows)


@settings(max_examples=200, deadline=None)
@given(graphs_with_families(), st.data())
def test_structural_violations_agree_with_bruteforce(case, data):
    g, family = case
    # arbitrary equal-size families may break the laws; emptiness must agree
    sg = build_slide_graph(g, family)
    assert (structural_violations(sg) == []) == (brute_structural_violations(sg) == [])
    if sg.edges:
        broken = _drop_slide(sg, data.draw(st.integers(0, len(sg.edges) - 1)))
        assert (structural_violations(broken) == []) == (brute_structural_violations(broken) == [])


@pytest.mark.parametrize("n, k", [(7, 3), (8, 4)])
def test_johnson_graphs_match_bruteforce(n, k):
    # all k-subsets of K_n slide into J(n, k): every (k-1)-subset is shared
    # by n - k + 1 > 2 sets, so each bucket is compared against several sets
    g = complete_graph(n)
    family = sorted(mask_of(c) for c in itertools.combinations(range(n), k))
    sg = build_slide_graph(g, family)
    rows = brute_slide_rows(g, family)
    assert sg.skeleton.adj == tuple(rows)
    assert list(sg.edges) == _expected_edges(g, family, rows)
    assert set(sg.skeleton.degree_sequence()) == {k * (n - k)}


def test_eight_triangles_slide_graph():
    # the i-graph of 8 K3 is the Hamming graph H(8, 3): 3^8 nodes of degree 16
    g = complete_graph(3)
    for _ in range(7):
        g = disjoint_union(g, complete_graph(3))
    sg = i_graph(g)
    assert sg.node_count() == 6561
    assert len(sg.edges) == 52488
    assert set(sg.skeleton.degree_sequence()) == {16}
    assert all(e[:2] < f[:2] for e, f in zip(sg.edges, sg.edges[1:]))
    for a, b, x, y in sg.edges:
        assert a < b
        assert sg.nodes[a] & ~sg.nodes[b] == 1 << x
        assert sg.nodes[b] & ~sg.nodes[a] == 1 << y


def test_star_center_degree_bounded_by_i():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        sg = i_graph(g)
        i_val = independence_report(g).i
        for node in range(sg.node_count()):
            assert max_induced_star_center_degree(sg, node) <= i_val


def test_disjoint_union_gives_cartesian_product():
    rng = random.Random(71)
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(1, 5), rng.random())
        g2 = random_graph(rng, rng.randint(1, 5), rng.random())
        combined = i_graph(disjoint_union(g1, g2))
        product = cartesian_product(i_graph(g1).skeleton, i_graph(g2).skeleton)
        assert is_isomorphic(combined.skeleton, product)


def test_product_law_exact_beyond_64_nodes():
    k3 = complete_graph(3)
    three = disjoint_union(disjoint_union(k3, k3), k3)
    four = disjoint_union(three, k3)
    product = cartesian_product(i_graph(k3).skeleton, i_graph(three).skeleton)
    assert product.n == 81
    assert i_graph(four).skeleton == product


def test_known_disconnected_seed():
    # one isolated vertex plus two disjoint edges slides into a 4-cycle
    g = wheel_graph(4).complement()
    sg = i_graph(g)
    assert is_isomorphic(sg.skeleton, cycle_graph(4))


def test_json_roundtrip():
    sg = i_graph(house_seed_graph())
    text = slide_graph_to_json(sg)
    back = slide_graph_from_json(text)
    assert back.nodes == sg.nodes
    assert set(back.edges) == set(sg.edges)
    assert back.skeleton == sg.skeleton


def _house_seed_payload():
    return json.loads(slide_graph_to_json(i_graph(house_seed_graph())))


def _rejected(payload, match=None):
    with pytest.raises(FormatError, match=match):
        slide_graph_from_json(payload if isinstance(payload, str) else json.dumps(payload))


def test_json_rejects_non_json():
    _rejected("{not json")


def test_json_rejects_missing_key():
    payload = _house_seed_payload()
    del payload["nodes"]
    _rejected(payload)


def test_json_rejects_nodes_that_are_not_a_list():
    payload = _house_seed_payload()
    payload["nodes"] = 5
    _rejected(payload, match="nodes must be a list")


def test_json_rejects_negative_vertex():
    payload = _house_seed_payload()
    payload["nodes"][0][0] = -1
    _rejected(payload)


def test_json_rejects_vertex_outside_base():
    payload = _house_seed_payload()
    payload["nodes"][-1][-1] = payload["base"]["n"]
    _rejected(payload)


def test_json_rejects_node_not_strictly_increasing():
    payload = _house_seed_payload()
    payload["nodes"][0].reverse()
    _rejected(payload)
    payload = _house_seed_payload()
    payload["nodes"][0][1] = payload["nodes"][0][0]
    _rejected(payload)


def test_json_rejects_nodes_out_of_mask_order():
    payload = _house_seed_payload()
    payload["nodes"][0], payload["nodes"][1] = payload["nodes"][1], payload["nodes"][0]
    _rejected(payload)


def test_json_rejects_edges_that_disagree():
    payload = _house_seed_payload()
    payload["edges"].pop()
    _rejected(payload)


def test_json_rejects_duplicate_edge():
    payload = _house_seed_payload()
    payload["edges"].append(payload["edges"][0])
    _rejected(payload)


def test_json_rejects_edges_out_of_order():
    payload = _house_seed_payload()
    payload["edges"][0], payload["edges"][1] = payload["edges"][1], payload["edges"][0]
    _rejected(payload)


def test_json_rejects_float_edge_value():
    payload = _house_seed_payload()
    payload["edges"][0]["u"] = float(payload["edges"][0]["u"])
    _rejected(payload)


def test_json_rejects_extra_edge_key():
    payload = _house_seed_payload()
    payload["edges"][0]["label"] = "x"
    _rejected(payload)


def test_json_rejects_extra_top_level_key():
    payload = _house_seed_payload()
    payload["version"] = 1
    _rejected(payload)


def test_json_rejects_extra_base_key():
    payload = _house_seed_payload()
    payload["base"]["name"] = "house"
    _rejected(payload)


def test_json_rejects_boolean_base_endpoint():
    payload = _house_seed_payload()
    edge = next(e for e in payload["base"]["edges"] if e[0] == 0)
    edge[0] = False
    _rejected(payload)


def test_json_rejects_boolean_vertex_count():
    # true re-serializes as true, so only the parse itself can reject it
    _rejected('{"base": {"n": true, "edges": []}, "nodes": [[0]], "edges": []}')


def test_json_rejects_base_edges_out_of_order():
    payload = _house_seed_payload()
    payload["base"]["edges"].reverse()
    _rejected(payload)


def test_dot_labels():
    sg = i_graph(cycle_graph(5))
    text = slide_graph_to_dot(sg)
    assert "SlideGraph" in text
    assert "{v0,v2}" in text
