"""Token-slide reconfiguration graphs over families of vertex sets.

The i-graph of G has one node per i-set; two nodes are adjacent when one set
becomes the other by sliding a single token along an edge of G, that is,
the sets differ in exactly one vertex on each side and those two vertices
are adjacent in G.  The alpha-graph is the same construction over the
maximum independent sets.  A slide graph keeps only its nodes and skeleton,
since the move along an edge is read off the two node sets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError, FormatError, GraphError, InvalidParameterError
from .formats import to_dot
from .graphs import Graph, _check_int, bits, mask_of
from .independence import _minimum_sets, independence_report, maximal_independent_sets

# the skeleton keeps one row of m bits per node, m^2 / 8 bytes for m nodes:
# 2^15 nodes take 128 MiB, and 3^10 (the i-sets of 10·K3) would take 415 MiB
MAX_SLIDE_NODES = 1 << 15


@dataclass(frozen=True)
class SlideGraph:
    """Reconfiguration graph: base graph, node sets, and the skeleton (the
    reconfiguration graph itself as a Graph, node ``i`` being ``nodes[i]``).

    ``nodes`` are bitmasks sorted ascending.
    """

    base: Graph
    nodes: tuple[int, ...]
    skeleton: Graph

    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int, int], ...]:
        """Skeleton edges ``(a, b, x, y)`` with ``a < b``, in (a, b) order,
        labeled on first use: sliding the token at ``x`` to ``y`` turns
        ``nodes[a]`` into ``nodes[b]``."""
        nodes = self.nodes
        return tuple((a, b, (nodes[a] & ~nodes[b]).bit_length() - 1,
                      (nodes[b] & ~nodes[a]).bit_length() - 1)
                     for a, b in self.skeleton.edges())


def build_slide_graph(g: Graph, family: list[int]) -> SlideGraph:
    """Slide graph over an explicit family of equal-size vertex subsets of g.

    Two sets slide into each other when they differ in one vertex on each
    side and those two vertices are adjacent.  Equal-size sets differ in one
    vertex on each side exactly when they share a subset one smaller, and
    then they share only that one, so each set S is looked up under every
    key S - {y} in buckets of the earlier sets: every candidate pair is met
    once, in O(m * i) lookups plus the pairs within each bucket, not m^2 / 2
    comparisons.  A family of more than ``MAX_SLIDE_NODES`` distinct sets
    raises CapacityError before any row is built.
    """
    nodes = sorted(set(family))
    if not nodes:
        raise InvalidParameterError("empty set family")
    if len(nodes) > MAX_SLIDE_NODES:
        raise CapacityError(f"{len(nodes)} sets exceed the slide graph capacity of "
                            f"{MAX_SLIDE_NODES}: its rows would take "
                            f"{len(nodes) ** 2 >> 23} MiB")
    size = nodes[0].bit_count() if type(nodes[0]) is int else None   # a non-int raises below
    full = g.full_mask()
    for s in nodes:
        if type(s) is not int:
            raise InvalidParameterError(f"set {s!r} is not an int")
        if s & ~full:
            raise InvalidParameterError("set uses vertices outside the graph")
        if s.bit_count() != size:
            raise InvalidParameterError("mixed set cardinalities in family")
    adj = g.adj
    rows = [0] * len(nodes)
    buckets: dict[int, list[int]] = {}   # key S - {y}: indices of the earlier sets S
    for b, sb in enumerate(nodes):
        rest = sb
        while rest:
            low = rest & -rest
            rest ^= low
            key = sb ^ low
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [b]
                continue
            y = low.bit_length() - 1
            for a in bucket:
                x = (nodes[a] ^ key).bit_length() - 1
                if adj[x] >> y & 1:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            bucket.append(b)
    return SlideGraph(g, tuple(nodes), Graph._from_rows(rows))


def i_graph(g: Graph) -> SlideGraph:
    return build_slide_graph(g, _minimum_sets(maximal_independent_sets(g)))


def alpha_graph(g: Graph) -> SlideGraph:
    return build_slide_graph(g, list(independence_report(g).alpha_sets))


# -- structural checks -------------------------------------------------

def structural_violations(sg: SlideGraph) -> list[str]:
    """Check the slide, distance and triangle laws every slide graph must
    satisfy, in one pass over the skeleton rows.

    Every skeleton edge is a slide along a base edge: adjacent nodes differ
    in one vertex on each side, and those two vertices are adjacent in the
    base.  That bounds every distance from below by the set difference,
    since set differences obey the triangle inequality.  Nodes at distance 2
    differ in two vertices.  Two slides compose to an edge exactly when the
    first landing vertex is the vertex the second slide picks up.

    Returns human-readable violation strings (empty list when clean).
    """
    out: list[str] = []
    nodes = sg.nodes
    rows = sg.skeleton.adj
    for a, row in enumerate(rows):
        reach = 0
        for b in bits(row):
            reach |= rows[b]
            landed = nodes[b] & ~nodes[a]
            if a < b:
                if landed.bit_count() > 1:
                    out.append(f"distance 1 below set difference {landed.bit_count()} for nodes {a},{b}")
                else:
                    x, y = (nodes[a] & ~nodes[b]).bit_length() - 1, landed.bit_length() - 1
                    if not sg.base.adj[x] >> y & 1:
                        out.append(f"edge ({a},{b}) slides along a non-edge ({x},{y})")
            for c in bits(rows[b] & ~(1 << a)):
                departed = nodes[b] & ~nodes[c]
                chord = row >> c & 1
                if (landed == departed) != chord:
                    out.append(
                        f"triangle law broken on path {a}-{b}-{c}: "
                        f"landed {landed.bit_length() - 1}, departed {departed.bit_length() - 1}, "
                        f"chord {'present' if chord else 'absent'}"
                    )
        for c in bits(reach & ~row & ~(1 << a)):
            differ = (nodes[a] & ~nodes[c]).bit_count()
            if a < c and differ != 2:
                out.append(f"nodes {a},{c} at distance 2 differ in {differ} vertices")
    return out


def max_induced_star_center_degree(sg: SlideGraph, node: int) -> int:
    """Largest m such that the skeleton has an induced K_{1,m} centered at node."""
    skel = sg.skeleton
    _check_int("node", node, 0, skel.n - 1)
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

    Raises FormatError unless ``text`` is JSON that, without the unread
    ``stats`` object ``islide compute --format json`` adds, is exactly what
    that function writes for the slide graph of its nodes: the same keys,
    integers (not floats or booleans), and the base edges, each node, the
    nodes and the slide edges once each in the written order.
    """
    try:
        payload = json.loads(text)
        payload.pop("stats", None)
        base = Graph(payload["base"]["n"], [tuple(e) for e in payload["base"]["edges"]])
        nodes = payload["nodes"]
    except (ValueError, KeyError, TypeError, AttributeError, GraphError) as exc:
        raise FormatError(f"malformed slide graph JSON: {exc!r}") from exc
    if not isinstance(nodes, list):
        raise FormatError("slide graph JSON nodes must be a list")
    for node in nodes:
        if not (isinstance(node, list) and all(type(v) is int and 0 <= v < base.n for v in node)):
            raise FormatError(f"node {node!r} is not a list of base vertices")
    try:
        rebuilt = build_slide_graph(base, [mask_of(node) for node in nodes])
    except InvalidParameterError as exc:
        raise FormatError(f"slide graph nodes: {exc}") from exc
    if slide_graph_to_json(rebuilt) != json.dumps(payload, indent=2, sort_keys=True):
        raise FormatError("slide graph JSON differs from what slide_graph_to_json "
                          "writes for its nodes")
    return rebuilt


def slide_graph_to_dot(sg: SlideGraph) -> str:
    labels = {
        idx: "{" + ",".join(f"v{v}" for v in bits(s)) + "}"
        for idx, s in enumerate(sg.nodes)
    }
    return to_dot(sg.skeleton, labels=labels, name="SlideGraph")
