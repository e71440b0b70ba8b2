"""Token-slide reconfiguration graphs over families of vertex sets.

The i-graph of G has one node per i-set; two nodes are adjacent when one set
becomes the other by sliding a single token along an edge of G, that is,
the sets differ in exactly one vertex on each side and those two vertices
are adjacent in G.  The alpha-graph is the same construction over the
maximum independent sets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import FormatError, GraphError, InvalidParameterError
from .formats import to_dot
from .graphs import Graph, bits, mask_of
from .independence import DEFAULT_SET_CAP, independence_report


@dataclass(frozen=True)
class SlideGraph:
    """Reconfiguration graph: base graph, node sets, move-labeled edges,
    and the skeleton (the reconfiguration graph itself as a Graph).

    ``nodes`` are bitmasks sorted ascending.  Each edge is
    ``(i, j, x, y)`` with ``i < j``: sliding the token at ``x`` to ``y``
    turns ``nodes[i]`` into ``nodes[j]``.
    """

    base: Graph
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    skeleton: Graph

    def node_count(self) -> int:
        return len(self.nodes)


def slide_rows(adj: Sequence[int], nodes: Sequence[int]) -> list[int]:
    """Skeleton rows of the slide graph over ``nodes``, equal-size vertex
    sets of the graph with adjacency rows ``adj``: bit ``b`` of row ``a`` is
    set when ``nodes[a]`` and ``nodes[b]`` differ in one vertex on each side
    and those two vertices are adjacent.  Compares every pair of sets."""
    m = len(nodes)
    size = nodes[0].bit_count()
    rows = [0] * m
    for a in range(m):
        sa = nodes[a]
        for b in range(a + 1, m):
            sb = nodes[b]
            if (sa & sb).bit_count() != size - 1:
                continue
            x = (sa & ~sb).bit_length() - 1
            y = (sb & ~sa).bit_length() - 1
            if adj[x] >> y & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def build_slide_graph(g: Graph, family: list[int]) -> SlideGraph:
    """Slide graph over an explicit family of equal-size vertex subsets of g."""
    nodes = sorted(set(family))
    if not nodes:
        raise InvalidParameterError("empty set family")
    size = nodes[0].bit_count()
    full = g.full_mask()
    for s in nodes:
        if s & ~full:
            raise InvalidParameterError("set uses vertices outside the graph")
        if s.bit_count() != size:
            raise InvalidParameterError("mixed set cardinalities in family")
    rows = slide_rows(g.adj, nodes)
    edges = []
    for a, row in enumerate(rows):
        sa = nodes[a]
        for b in bits(row):
            if b < a:
                continue
            sb = nodes[b]
            edges.append((a, b, (sa & ~sb).bit_length() - 1, (sb & ~sa).bit_length() - 1))
    skeleton = Graph._from_rows(rows)
    return SlideGraph(g, tuple(nodes), tuple(edges), skeleton)


def i_graph(g: Graph, cap: int = DEFAULT_SET_CAP) -> SlideGraph:
    report = independence_report(g, cap=cap)
    return build_slide_graph(g, list(report.i_sets))


def alpha_graph(g: Graph, cap: int = DEFAULT_SET_CAP) -> SlideGraph:
    report = independence_report(g, cap=cap)
    return build_slide_graph(g, list(report.alpha_sets))


# -- structural checks -------------------------------------------------

def structural_violations(sg: SlideGraph) -> list[str]:
    """Check the distance and triangle laws every slide graph must satisfy.

    Returns human-readable violation strings (empty list when clean).
    """
    out: list[str] = []
    nodes = sg.nodes
    m = len(nodes)

    for a, b, x, y in sg.edges:
        diff = nodes[a] ^ nodes[b]
        if diff != (1 << x) | (1 << y):
            out.append(f"edge ({a},{b}) label ({x},{y}) does not match set difference")
        if not sg.base.adj[x] >> y & 1:
            out.append(f"edge ({a},{b}) slides along a non-edge ({x},{y})")

    skel = sg.skeleton
    dist = [skel.bfs_distances(v) for v in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            hamming = (nodes[a] & ~nodes[b]).bit_count()
            d = dist[a][b]
            if d != -1 and d < hamming:
                out.append(f"distance {d} below set difference {hamming} for nodes {a},{b}")
            if d == 2 and hamming != 2:
                out.append(f"nodes {a},{b} at distance 2 differ in {hamming} vertices")

    # Two slides compose to an edge exactly when the first landing vertex
    # is the vertex the second slide picks up.
    moves: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b, x, y in sg.edges:
        moves[(a, b)] = (x, y)
        moves[(b, a)] = (y, x)
    for (a, b), (x1, y1) in moves.items():
        for c in bits(skel.adj[b]):
            if c == a:
                continue
            y2, z = moves[(b, c)]
            has_ac = bool(skel.adj[a] >> c & 1)
            if (y1 == y2) != has_ac:
                out.append(
                    f"triangle law broken on path {a}-{b}-{c}: "
                    f"landed {y1}, departed {y2}, chord {'present' if has_ac else 'absent'}"
                )
    return out


def max_induced_star_center_degree(sg: SlideGraph, node: int) -> int:
    """Largest m such that the skeleton has an induced K_{1,m} centered at node."""
    skel = sg.skeleton
    if not skel.adj[node]:
        return 0
    sub, _ = skel.induced(skel.adj[node])
    return independence_report(sub).alpha


# -- serialization -----------------------------------------------------

def slide_graph_to_json(sg: SlideGraph) -> str:
    payload = {
        "base": {"n": sg.base.n, "edges": [list(e) for e in sg.base.edges()]},
        "nodes": [sorted(bits(s)) for s in sg.nodes],
        "edges": [
            {"u": a, "v": b, "moved_from": x, "moved_to": y} for a, b, x, y in sg.edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def slide_graph_from_json(text: str) -> SlideGraph:
    """Inverse of ``slide_graph_to_json``.

    Raises FormatError unless ``text`` is what that function writes: JSON
    with the base graph, each node a strictly increasing list of base
    vertices, the nodes in strictly ascending mask order, and exactly the
    slide edges of those nodes.
    """
    try:
        payload = json.loads(text)
        base = Graph(payload["base"]["n"], [tuple(e) for e in payload["base"]["edges"]])
        nodes = payload["nodes"]
        moves = {(e["u"], e["v"], e["moved_from"], e["moved_to"]) for e in payload["edges"]}
    except (ValueError, KeyError, TypeError, GraphError) as exc:
        raise FormatError(f"malformed slide graph JSON: {exc!r}") from exc
    if not isinstance(nodes, list):
        raise FormatError("slide graph JSON nodes must be a list")
    for node in nodes:
        if not (isinstance(node, list) and all(type(v) is int and 0 <= v < base.n for v in node)
                and node == sorted(set(node))):
            raise FormatError(f"node {node!r} is not a strictly increasing list of base vertices")
    family = [mask_of(node) for node in nodes]
    if family != sorted(set(family)):
        raise FormatError("slide graph nodes are not in strictly ascending mask order")
    try:
        rebuilt = build_slide_graph(base, family)
    except InvalidParameterError as exc:
        raise FormatError(f"slide graph nodes: {exc}") from exc
    if moves != set(rebuilt.edges):
        raise FormatError("serialized edges disagree with slide adjacency")
    return rebuilt


def slide_graph_to_dot(sg: SlideGraph) -> str:
    labels = {
        idx: "{" + ",".join(f"v{v}" for v in bits(s)) + "}"
        for idx, s in enumerate(sg.nodes)
    }
    return to_dot(sg.skeleton, labels=labels, name="SlideGraph")
