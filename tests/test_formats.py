import random

import pytest

from islide import (
    CapacityError,
    FormatError,
    Graph,
    complete_graph,
    from_edge_list,
    from_graph6,
    path_graph,
    to_dot,
    to_edge_list,
    to_graph6,
)

from bruteforce import random_graph


def test_graph6_frozen_values():
    # hand-encoded per the published byte layout (column-major upper triangle)
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(path_graph(3)) == "Bg"
    assert to_graph6(complete_graph(1)) == "@"


def test_graph6_roundtrip_random():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects():
    with pytest.raises(FormatError):
        from_graph6("")
    with pytest.raises(FormatError):
        from_graph6("~??")  # multi-byte size form
    with pytest.raises(FormatError):
        from_graph6("Bwx")  # trailing junk
    with pytest.raises(FormatError):
        from_graph6("Bx")  # non-zero padding bit
    with pytest.raises(CapacityError):
        to_graph6(Graph(63))  # an output limit, not malformed input
    # header prefix accepted
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)


def test_edge_list_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_rejects():
    with pytest.raises(FormatError):
        from_edge_list("")
    with pytest.raises(FormatError):
        from_edge_list("x\n0 1\n")
    with pytest.raises(FormatError):
        from_edge_list("3\n0 1 2\n")
    with pytest.raises(FormatError):
        from_edge_list("3\n0 3\n")
    with pytest.raises(FormatError):
        from_edge_list("3\n1 1\n")
    with pytest.raises(FormatError):
        from_edge_list("3\n0 1\n0 1\n")


def test_dot_output():
    text = to_dot(path_graph(3), labels={0: "left"})
    assert "graph G {" in text
    assert '0 [label="left"];' in text
    assert "0 -- 1;" in text
