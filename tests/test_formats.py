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
        from_graph6(">>graph6<<")  # header only
    with pytest.raises(FormatError):
        from_graph6("~??")  # truncated 4-byte size form
    with pytest.raises(FormatError):
        from_graph6("~??}" + "?" * 316)  # 4-byte size form for n = 62
    with pytest.raises(FormatError):
        from_graph6("~~?????@" + "?" * 336)  # 8-byte size form
    with pytest.raises(FormatError):
        from_graph6("~?@@" + "?" * 347)  # 65 vertices, above capacity
    with pytest.raises(FormatError):
        from_graph6("Bwx")  # trailing junk
    with pytest.raises(FormatError):
        from_graph6("Bx")  # non-zero padding bit
    with pytest.raises(FormatError, match="invalid graph6 byte '>'"):
        from_graph6("B>")  # a byte below '?'
    assert from_graph6(to_graph6(Graph(63))) == Graph(63)
    with pytest.raises(CapacityError):
        to_graph6(Graph._from_rows([0] * 258048))  # beyond the 4-byte size form
    # header prefix accepted
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)


def test_graph6_size_forms():
    rng = random.Random(17)
    for n, header in ((62, "}"), (63, "~??~"), (64, "~?@?")):
        g = random_graph(rng, n, 0.5)
        text = to_graph6(g)
        assert text.startswith(header)
        assert len(text) == len(header) + (n * (n - 1) // 2 + 5) // 6
        assert from_graph6(text) == g


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


def test_edge_list_takes_ascii_digits_only():
    # int() would read these as 11, the edge (0, 10), 0 and 1
    for text in ["1_1\n0 1\n", "11\n0 1_0\n", "2\n+0 1\n", "2\n0 -1\n",
                 "2\n0 \u0661\n", "\u0662\n0 1\n"]:
        with pytest.raises(FormatError):
            from_edge_list(text)


def test_dot_output():
    text = to_dot(path_graph(3), labels={0: "left"})
    assert "graph G {" in text
    assert '0 [label="left"];' in text
    assert "0 -- 1;" in text
