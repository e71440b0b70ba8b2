"""Inputs, operations and output checks of the three benchmark workloads.

Each builder takes the imported ``islide`` module, a seeded
``random.Random`` and a size table, and returns a list of ``Op``.  An op
answers one question through the library's public calls in ``run``;
``replay`` makes the same calls one layer at a time through a tracer (see
``replay.py``).  ``verdict`` turns the result of either into the value
that must equal ``expect``.  Expected values come from the paper's claims,
not from the library: the seven theta exceptions, the product law for
disjoint unions, 3^r i-sets of r*K3, and so on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from replay import PROBES, NullTracer

# The seven theta graphs with no seed (j <= k <= l).
THETA_EXCEPTIONS = frozenset({
    (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 3, 3),
})

FULL = {
    # corroborate: every labeled graph on n <= max_n vertices per scan; the
    # traced replay adds a seeded sample of sample7 graphs on 7 vertices
    "max_n": 6,
    "sample7": 20000,
    # catalog: every theta spec of order <= order
    "order": 26,
    # igraphs: type pairs and line roots (None = all), r for r*K3
    "type_pairs": None,
    "line_roots": None,
    "r_values": (6, 7),
    # traced runs: calls timed once each (see probe_calls)
    "probes": PROBES,
}

# the self-test's sizes
TINY = {
    "max_n": 5,
    "sample7": 200,
    "order": 12,
    "type_pairs": 6,
    "line_roots": 3,
    "r_values": (2, 3),
    "probes": ("iso.probe_ms.Q3",),
}

# Disjoint-union pairs: the 52 graphs on 1..5 vertices fall into 14 i-graph
# types, and the cost of checking the product law is set by the two types,
# not by the representatives or their labels.  Every run therefore checks
# each pair of types once, with seeded representatives and labels, so the
# work is the same on every seed.  Types with more than 4 i-sets (K5, C5,
# K2+K3, one more) are left out: their products have 15 to 36 nodes and a
# single identification takes 0.3 to 26 s, which would set the wall time
# on its own.  The 55 pairs that remain cost from under 1 ms to about
# 0.4 s each, so pairs drawn at random from them would make a pass's cost
# depend on the seed.
PAIR_TYPE_MAX_ISETS = 4


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    replay: Callable[[Any], Any]
    verdict: Callable[[Any], Any]
    expect: Any


def _same(x):
    return x


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _i_graph(s, t, g):
    """i_graph(g) as its two layer calls, with their counters."""
    rep = t.call("independence.independence_report", s.independence_report, g)
    t.count("independence.sets", rep.total_mis_count)
    t.count("independence.kept", len(rep.i_sets))
    sg = t.call("reconfig.build_slide_graph", s.build_slide_graph, g, list(rep.i_sets))
    t.count("reconfig.nodes", len(sg.nodes))
    t.count("reconfig.edges", len(sg.edges))
    return sg


def _scanner(s, t, targets):
    """The scan's step for one graph, through the public kernels the scan
    has private copies of: MIS, slide adjacency, canonical labelling, with
    its two filters (set count, then degree sequence).  Returns ``examine``
    and the list of first witnesses, one slot per target, that it fills."""
    prepared = [(g.n, g.degree_sequence(), t.call("iso.canonical_key", s.canonical_key, g))
                for g in targets]
    orders = {p[0] for p in prepared}
    firsts = [None] * len(targets)

    def examine(g):
        sets = t.call("independence.maximal_independent_sets",
                      s.maximal_independent_sets, g)
        best = min(x.bit_count() for x in sets)
        isets = [x for x in sets if x.bit_count() == best]
        t.count("search.graphs")
        t.count("independence.sets", len(sets))
        t.count("independence.kept", len(isets))
        if len(isets) not in orders:
            return
        t.count("search.count_pass")
        sg = t.call("reconfig.build_slide_graph", s.build_slide_graph, g, isets)
        t.count("reconfig.nodes", len(sg.nodes))
        t.count("reconfig.edges", len(sg.edges))
        degseq = t.call("graphs.degree_sequence", sg.skeleton.degree_sequence)
        key = None
        for idx, (order, dseq, ckey) in enumerate(prepared):
            if order != len(isets) or dseq != degseq:
                continue
            if key is None:
                t.count("search.degree_pass")
                key = t.call("iso.canonical_key", s.canonical_key, sg.skeleton)
            if key == ckey:
                t.count("search.hits")
                if firsts[idx] is None:
                    firsts[idx] = g

    return examine, firsts


# -- corroborate ------------------------------------------------------------

def corroborate_targets(s):
    """Name, graph and whether a seed exists, for the 8 non-realizable
    targets of acceptance criterion 5 and two positive controls."""
    th = s.theta_graph
    return [
        ("diamond", s.diamond_graph(), False),
        ("K23", th(2, 2, 2), False),
        ("kappa", th(2, 2, 3), False),
        ("theta224", th(2, 2, 4), False),
        ("theta233", th(2, 3, 3), False),
        ("theta234", th(2, 3, 4), False),
        ("theta333", th(3, 3, 3), False),
        ("obstructionT", s.obstruction_t_graph(), False),
        ("house", s.house_graph(), True),
        ("C5", s.cycle_graph(5), True),
    ]


def build_corroborate(s, rng, size):
    targets = corroborate_targets(s)
    rng.shuffle(targets)
    names = [name for name, _, _ in targets]
    graphs = [g for _, g, _ in targets]
    max_n = size["max_n"]
    # a control's first seed has 5 vertices: no graph on <= 4 vertices has
    # five i-sets
    expect = tuple((name, 5, True) if real else (name, None)
                   for name, _, real in targets)
    pairs7 = [(u, v) for v in range(1, 7) for u in range(v)]
    sample7 = sorted({rng.getrandbits(len(pairs7)) for _ in range(size["sample7"])})

    def run():
        reports = s.scan_for_targets(graphs, max_n, jobs=1)
        return [rep.witnesses[0] if rep.witnesses else None for rep in reports]

    def verdict(firsts):
        out = []
        for name, target, w in zip(names, graphs, firsts):
            if w is None:
                out.append((name, None))
            else:
                out.append((name, w.n, s.is_isomorphic(s.i_graph(w).skeleton, target)))
        return tuple(out)

    def replay(t):
        examine, firsts = _scanner(s, t, graphs)
        for n in range(1, max_n + 1):
            with t.span("bench.level"):
                graphs_n = s.enumerate_labeled_graphs(n)
                while (g := t.call("search.enumerate_labeled_graphs",
                                   next, graphs_n, None)) is not None:
                    examine(g)
        with t.span("bench.level"):
            for mask in sample7:
                edges = [p for i, p in enumerate(pairs7) if mask >> i & 1]
                examine(t.call("graphs.Graph", s.Graph, 7, edges))
        return firsts

    return [Op("scan", run, replay, verdict, expect)]


# -- catalog ----------------------------------------------------------------

def build_catalog(s, rng, size, exceptions=THETA_EXCEPTIONS):
    specs = s.theta_specs_up_to(size["order"])
    rng.shuffle(specs)
    return [_catalog_op(s, spec, spec.as_tuple() in exceptions) for spec in specs]


def _catalog_op(s, spec, exception):
    j, k, l = spec.as_tuple()
    if exception:
        def run():
            return s.build_theta_seed_complement(j, k, l).verdict

        def replay(t):
            return t.call("seeds.build_theta_seed_complement",
                          s.build_theta_seed_complement, j, k, l).verdict

        return Op("exception", run, replay, _same, "not_realizable")

    def run():
        return tuple(c.passed for c in s.verify_theta_seed(j, k, l).clauses)

    def replay(t):
        # verify_theta_seed, one layer call at a time, same six clauses
        res = t.call("seeds.build_theta_seed_complement",
                     s.build_theta_seed_complement, j, k, l)
        t.tag(res.trace.construction_id)
        tr = res.trace
        g = t.call("graphs.complement", res.gbar.complement)
        rep = t.call("independence.independence_report", s.independence_report, g)
        t.count("independence.sets", rep.total_mis_count)
        t.count("independence.kept", len(rep.i_sets))
        sg = t.call("reconfig.build_slide_graph", s.build_slide_graph, g, list(rep.i_sets))
        target = t.call("graphs.theta", s.theta, spec)
        iso_i = t.call("iso.is_isomorphic", s.is_isomorphic, sg.skeleton, target)
        ag = t.call("reconfig.build_slide_graph", s.build_slide_graph, g, list(rep.alpha_sets))
        for x in (sg, ag):
            t.count("reconfig.nodes", len(x.nodes))
            t.count("reconfig.edges", len(x.edges))
        iso_a = t.call("iso.is_isomorphic", s.is_isomorphic, ag.skeleton, target)
        return (
            rep.i == tr.expected_i,
            sg.node_count() == tr.expected_order,
            iso_i,
            all(m in rep.i_sets for m in tr.expected_labels.values()),
            rep.alpha == tr.expected_alpha,
            iso_a if tr.alpha_equal else not iso_a,
        )

    return Op("verify", run, replay, _same, (True,) * 6)


# -- igraphs ----------------------------------------------------------------

def small_graph_classes(s):
    """One graph per isomorphism class on 1..5 vertices (52 classes)."""
    classes = {}
    for n in range(1, 6):
        for g in s.enumerate_labeled_graphs(n):
            classes.setdefault(s.canonical_key(g), g)
    return list(classes.values())


def small_graph_types(s, classes):
    """The classes grouped by the isomorphism type of their i-graph: a
    list of (i-set count, members)."""
    types: dict = {}
    for g in classes:
        skel = s.i_graph(g).skeleton
        types.setdefault(s.canonical_key(skel), (skel.n, []))[1].append(g)
    return list(types.values())


def line_roots(s, classes):
    """One graph per isomorphism class of the connected triangle-free
    graphs on 4..6 vertices with >= 3 edges (28 classes).  A graph on 6
    vertices is one on 5 plus a vertex joined to an independent set, so
    the classes on 5 vertices yield those on 6."""
    def keep(g):
        return g.n >= 4 and g.edge_count() >= 3 and g.is_connected() and not g.has_triangle()

    roots = {s.canonical_key(g): g for g in classes if keep(g)}
    for g in classes:
        if g.n != 5 or g.has_triangle():
            continue
        for mask in range(1, 1 << 5):
            h = s.Graph(6, g.edges() + [(v, 5) for v in range(5) if mask >> v & 1])
            if keep(h):
                roots.setdefault(s.canonical_key(h), h)
    return list(roots.values())


def build_igraphs(s, rng, size):
    ops = []
    classes = small_graph_classes(s)
    types = small_graph_types(s, classes)
    paired = [members for count, members in types if count <= PAIR_TYPE_MAX_ISETS]
    type_pairs = [(a, b) for i, a in enumerate(paired) for b in paired[i:]]
    roots = line_roots(s, classes)
    for a, b in type_pairs[:size["type_pairs"]]:
        ops.append(_pair_op(s, rng, rng.choice(a), rng.choice(b)))
    for root in roots[:size["line_roots"]]:
        ops.append(_line_op(s, _relabel(root, rng)))

    k2, k3 = s.complete_graph(2), s.complete_graph(3)
    for r in size["r_values"]:
        ops.append(_rk3_op(s, _relabel(_copies(s, k3, r), rng), r))
    q4 = s.cartesian_product(s.cartesian_product(k2, k2), s.cartesian_product(k2, k2))
    ops.append(_identify_op(s, "Q4", _relabel(_copies(s, k2, 4), rng), q4))
    cube, cube_rot = cube_with_rotation(s)
    prism, prism_rot = hex_prism_with_rotation(s)
    ops.append(_planar_op(s, "cube", cube, cube_rot, induced=False))
    ops.append(_planar_op(s, "prism", prism, prism_rot, induced=True))
    rng.shuffle(ops)
    return ops


def _copies(s, g, r):
    out = g
    for _ in range(r - 1):
        out = s.disjoint_union(out, g)
    return out


def _pair_op(s, rng, a, b):
    """Criterion-8 law: I(A + B) is isomorphic to I(A) x I(B)."""
    a, b = _relabel(a, rng), _relabel(b, rng)
    union = _relabel(s.disjoint_union(a, b), rng)

    def run():
        sg = s.i_graph(union)
        prod = s.cartesian_product(s.i_graph(a).skeleton, s.i_graph(b).skeleton)
        return (s.is_isomorphic(sg.skeleton, prod), s.structural_violations(sg),
                sg.node_count(), prod.n)

    def replay(t):
        sg = _i_graph(s, t, union)
        pa, pb = _i_graph(s, t, a).skeleton, _i_graph(s, t, b).skeleton
        prod = t.call("graphs.cartesian_product", s.cartesian_product, pa, pb)
        iso = t.call("iso.is_isomorphic", s.is_isomorphic, sg.skeleton, prod)
        viol = t.call("reconfig.structural_violations", s.structural_violations, sg)
        return iso, viol, sg.node_count(), prod.n

    def verdict(res):
        iso, viol, nodes, prod_nodes = res
        return iso, not viol, nodes == prod_nodes

    return Op("pair", run, replay, verdict, (True, True, True))


def _rk3_op(s, g, r):
    """r*K3 has 3^r i-sets, each adjacent to 2r others."""
    def run():
        sg = s.i_graph(g)
        return sg.node_count(), sg.skeleton.degree_sequence()

    def replay(t):
        sg = _i_graph(s, t, g)
        return sg.node_count(), t.call("graphs.degree_sequence", sg.skeleton.degree_sequence)

    def verdict(res):
        nodes, degrees = res
        return nodes, tuple(sorted(set(degrees)))

    return Op("rK3", run, replay, verdict, (3 ** r, (2 * r,)))


def _identify_op(s, kind, g, target):
    def run():
        sg = s.i_graph(g)
        return sg.node_count(), s.is_isomorphic(sg.skeleton, target)

    def replay(t):
        sg = _i_graph(s, t, g)
        return sg.node_count(), t.call("iso.is_isomorphic", s.is_isomorphic, sg.skeleton, target)

    return Op(kind, run, replay, _same, (target.n, True))


def _planar_op(s, kind, g, rot, induced):
    """Cubic bipartite planar g: the complement of its dual seeds it (exactly
    for the cube; the prism is checked as an induced subgraph)."""
    match = s.contains_induced if induced else s.is_isomorphic
    match_name = "iso.contains_induced" if induced else "iso.is_isomorphic"

    def run():
        sg = s.i_graph(s.planar_seed(g, rot))
        return sg.node_count(), match(sg.skeleton, g)

    def replay(t):
        dual = t.call("planar.planar_dual", s.planar_dual, g, rot)
        seed = t.call("graphs.complement", dual.complement)
        sg = _i_graph(s, t, seed)
        return sg.node_count(), t.call(match_name, match, sg.skeleton, g)

    return Op(kind, run, replay, _same, (g.n, True))


def _line_op(s, root):
    """A diamond-free line graph is the i-graph of the complement of its root."""
    h = s.line_graph(root)

    def run():
        sg = s.i_graph(s.seed_from_line_graph(h))
        return sg.node_count(), s.is_isomorphic(sg.skeleton, h)

    def replay(t):
        seed = t.call("linegraphs.seed_from_line_graph", s.seed_from_line_graph, h)
        sg = _i_graph(s, t, seed)
        return sg.node_count(), t.call("iso.is_isomorphic", s.is_isomorphic, sg.skeleton, h)

    return Op("line", run, replay, _same, (root.edge_count(), True))


def cube_with_rotation(s):
    """Q3 drawn as two nested squares."""
    g = s.Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                    (0, 4), (1, 5), (2, 6), (3, 7)])
    pos = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-2, -2), (2, -2), (2, 2), (-2, 2)]
    return g, s.rotation_from_layout(g, pos)


def hex_prism_with_rotation(s):
    """Hexagonal prism drawn as two nested hexagons."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    g = s.Graph(12, edges)
    pos = [(r * math.cos(i * math.pi / 3), r * math.sin(i * math.pi / 3))
           for r in (1, 2) for i in range(6)]
    return g, s.rotation_from_layout(g, pos)


def layer_probe_op(s):
    """One small fixed op that calls every layer, appended to each traced
    replay so that every layer metric is measured, and nonzero, on every
    workload (a workload that does not use a layer shows only this probe).
    It scans the graphs on 4 vertices for K4 with the scan's step, and
    builds one seed per construction arm that theta specs of order <= 26
    use."""
    first_spec = {}
    for spec in s.theta_specs_up_to(26):
        arms = s.applicable_constructions(spec)
        if arms:
            first_spec.setdefault(arms[0], spec.as_tuple())
    specs = list(first_spec.values())
    cube, rot = cube_with_rotation(s)
    h = s.line_graph(s.path_graph(6))
    p3 = s.path_graph(3)
    k4 = s.complete_graph(4)

    def replay(t):
        examine, firsts = _scanner(s, t, [k4])
        graphs = s.enumerate_labeled_graphs(4)
        count = 0
        while (g := t.call("search.enumerate_labeled_graphs", next, graphs, None)) is not None:
            examine(g)
            count += 1
        realizable = True
        for j, k, l in specs:
            res = t.call("seeds.build_theta_seed_complement",
                         s.build_theta_seed_complement, j, k, l)
            t.tag(res.trace.construction_id)
            realizable &= res.is_realizable
        dual = t.call("planar.planar_dual", s.planar_dual, cube, rot)
        seed = t.call("linegraphs.seed_from_line_graph", s.seed_from_line_graph, h)
        sg = _i_graph(s, t, seed)
        clean = not t.call("reconfig.structural_violations", s.structural_violations, sg)
        found = t.call("iso.contains_induced", s.contains_induced, sg.skeleton, p3)
        return count, firsts[0] is not None, realizable, dual.n, sg.node_count(), clean, found

    # 2^6 graphs on 4 vertices, of which K4 is its own i-graph (4 graphs,
    # K4 and the three 2*K2, pass the set count; only K4 the degree
    # filter); the cube's dual is the octahedron; L(P6) is P5, whose 5
    # nodes contain an induced P3
    return Op("layer_probe", lambda: replay(NullTracer()), replay, _same,
              (64, True, True, 6, 5, True, True))


def probe_calls(s):
    """For each name in PROBES, a function that prepares one call and
    returns it, for a traced run to time once: canonical labelling of
    symmetric graphs, whose cost grows with |Aut|, and slide adjacency on
    the 6561 i-sets of 8*K3, which compares every pair of sets.  The K3^3,
    4*C4 and 8*K3 calls take 0.4 to 15 s each, so in the end-to-end passes
    they would be timed only a few times in a run and set most of the pass
    time."""
    k2, k3 = s.complete_graph(2), s.complete_graph(3)
    q3 = s.cartesian_product(s.cartesian_product(k2, k2), k2)
    graphs = {
        "Q3": q3,
        "Q4": s.cartesian_product(q3, k2),
        "K44": s.Graph(8, [(i, j) for i in range(4) for j in range(4, 8)]),
        "K333": s.cartesian_product(s.cartesian_product(k3, k3), k3),
        "4C4": _copies(s, s.cycle_graph(4), 4),
    }

    def slide_8k3():
        g = _copies(s, k3, 8)
        sets = list(s.independence_report(g).i_sets)
        return lambda: s.build_slide_graph(g, sets)

    calls = {f"iso.probe_ms.{name}": (lambda g=g: lambda: s.canonical_key(g))
             for name, g in graphs.items()}
    calls["reconfig.probe_ms.8K3"] = slide_8k3
    return calls


BUILDERS = {
    "corroborate": build_corroborate,
    "catalog": build_catalog,
    "igraphs": build_igraphs,
}
