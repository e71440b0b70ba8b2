"""Property tests of the edge-mask codec, of canonical labelling, of the
maximal-independent-set families and of line graphs and their roots against
the independent oracles in ``bruteforce``, and of the class scan against a
loop that builds every class's i-graph."""
import dataclasses
import functools
import itertools
import random

from hypothesis import assume, given, settings, strategies as st

from islide import (
    Graph,
    canonical_form,
    canonical_key,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    from_graph6,
    i_graph,
    independence_report,
    is_isomorphic,
    krausz_partition,
    line_graph,
    line_graph_root,
    maximal_independent_sets,
    path_graph,
    scan_for_targets,
    star_graph,
    to_graph6,
)
from islide import iso
from islide.search import SearchReport, _class_levels

from bruteforce import (
    brute_automorphism_orbits,
    brute_contains_induced,
    brute_graph6,
    brute_is_isomorphic,
    brute_labeled_graphs,
    brute_line_graph,
    brute_maximal_independent_sets,
    paley_graph,
    petersen_graph,
    random_cubic_graph,
    random_graph,
    random_permutation,
    reference_canonical,
    rook_graph,
    shrikhande_graph,
)


@st.composite
def graphs(draw, max_n):
    # half the draws at the largest sizes, where graph6 changes size form
    n = draw(st.integers(1, max_n) | st.integers(max(1, max_n - 2), max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_graph(rng, n, draw(st.floats(0, 1)))


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(deadline=None)
@given(graphs(64))
def test_graph6_matches_published_layout(g):
    text = to_graph6(g)
    assert text == brute_graph6(g)
    assert from_graph6(text) == g


def test_mask_codec_is_the_labeled_order():
    for n in range(1, 6):
        for k, g in enumerate(brute_labeled_graphs(n)):
            assert Graph._from_mask(n, k) == g
            assert g._edge_mask() == k


@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
def test_edge_mask_inverts_from_mask(case):
    n, mask = case
    g = Graph._from_mask(n, mask)
    assert g._edge_mask() == mask
    assert g == Graph(n, g.edges())


@settings(deadline=None)
@given(graphs(10), st.randoms())
def test_canonical_key_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(permuted(g, perm)) == canonical_key(g)


@settings(deadline=None)
@given(graphs(10))
def test_canonical_key_decodes_to_canonical_form(g):
    assert Graph._from_mask(*canonical_key(g)) == canonical_form(g)[0]


@settings(deadline=None)
@given(graphs(8))
def test_canonical_matches_leaf_exhaustive_reference(g):
    assert iso._canonical(g)[:2] == reference_canonical(g)


def test_canonical_matches_reference_on_symmetric_graphs():
    # large automorphism groups are where pruning acts; G+G+K1 has
    # automorphisms that swap whole components
    rng = random.Random(8)
    named = [petersen_graph(), paley_graph(13), rook_graph(4), shrikhande_graph()]
    inputs = named + [g.relabel(random_permutation(rng, g.n)) for g in named]
    inputs += [random_cubic_graph(rng, rng.choice((4, 6, 8, 10, 12))) for _ in range(20)]
    for h in (cycle_graph(4), cycle_graph(5), path_graph(3), diamond_graph()):
        twice = disjoint_union(disjoint_union(h, h), Graph(1))
        inputs += [twice.relabel(random_permutation(rng, twice.n)) for _ in range(3)]
    for g in inputs:
        assert iso._canonical(g)[:2] == reference_canonical(g)


def generated_orbits(n: int, gens: list[list[int]]) -> set[frozenset[int]]:
    """Vertex orbits of the group that the permutations ``gens`` generate."""
    orbits = set()
    for v in range(n):
        orbit = [v]
        for u in orbit:
            for gamma in gens:
                if gamma[u] not in orbit:
                    orbit.append(gamma[u])
        orbits.add(frozenset(orbit))
    return orbits


@settings(deadline=None)
@given(graphs(8))
def test_canonical_generators_are_automorphisms(g):
    for gamma in iso._canonical(g)[2]:
        assert g.relabel(gamma) == g


@settings(deadline=None)
@given(graphs(6))
def test_canonical_generators_give_the_automorphism_orbits(g):
    assert generated_orbits(g.n, iso._canonical(g)[2]) == brute_automorphism_orbits(g)


def test_canonical_generators_generate_the_automorphism_group():
    # with twin transpositions pruning from the start, the group the
    # generators close to must still be all of Aut(G), on every class on up
    # to 6 vertices with random labels
    rng = random.Random(3)
    for n, level in _class_levels(6, False):
        for mask in level:
            g = Graph._from_mask(n, mask).relabel(random_permutation(rng, n))
            gens = iso._canonical(g)[2]
            group = [tuple(range(n))]
            seen = set(group)
            for p in group:
                for gamma in gens:
                    q = tuple(gamma[p[v]] for v in range(n))
                    if q not in seen:
                        seen.add(q)
                        group.append(q)
            auts = sum(g.relabel(list(p)) == g for p in itertools.permutations(range(n)))
            assert len(group) == auts, g.edges()


def test_generators_of_empty_and_complete_graphs():
    for n in range(1, 7):
        for g in (Graph(n), complete_graph(n)):
            gens = iso._canonical(g)[2]
            assert all(g.relabel(gamma) == g for gamma in gens)
            assert generated_orbits(n, gens) == brute_automorphism_orbits(g) == {frozenset(range(n))}


@settings(deadline=None)
@given(graphs(7), st.randoms(), st.booleans())
def test_canonical_key_agrees_with_bruteforce(g, rng, move_edge):
    # h is a relabeling of g, with one edge moved to a non-edge half the time
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    gaps = [(u, v) for v in range(g.n) for u in range(v) if (u, v) not in edges and (v, u) not in edges]
    if move_edge and edges and gaps:
        edges.remove(rng.choice(edges))
        edges.append(rng.choice(gaps))
    h = Graph(g.n, edges)
    assert (canonical_key(g) == canonical_key(h)) == brute_is_isomorphic(g, h)


@settings(deadline=None)
@given(graphs(8), st.randoms(), st.booleans())
def test_is_isomorphic_agrees_with_bruteforce(g, rng, move_edge):
    # h is g relabelled, with one edge moved half the time: the degree
    # sequences often still agree, so the prefilters pass and the walk runs
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = permuted(g, perm)
    edges, gaps = h.edges(), h.complement().edges()
    if move_edge and edges and gaps:
        edges.remove(rng.choice(edges))
        h = Graph(g.n, edges + [rng.choice(gaps)])
    assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)


@settings(deadline=None)
@given(graphs(10))
def test_mis_families_match_bruteforce(g):
    brute = brute_maximal_independent_sets(g)
    sets = maximal_independent_sets(g)
    assert len(sets) == len(brute)
    assert set(sets) == brute
    i = min(s.bit_count() for s in brute)
    alpha = max(s.bit_count() for s in brute)
    rep = independence_report(g)
    assert (rep.i, rep.alpha, rep.total_mis_count) == (i, alpha, len(brute))
    assert set(rep.i_sets) == {s for s in brute if s.bit_count() == i}
    assert set(rep.alpha_sets) == {s for s in brute if s.bit_count() == alpha}


@settings(deadline=None)
@given(graphs(11))
def test_line_graph_matches_definition(g):
    assume(g.edge_count())   # at most 55 edges, within the 64-vertex cap
    assert line_graph(g) == brute_line_graph(g)


@settings(deadline=None)
@given(st.integers(2, 7), st.floats(0.3, 1), st.randoms())
def test_line_graph_root_recovers_the_graph(n, p, rng):
    # Whitney: a connected graph is determined by its line graph, but for K3 and the claw
    f = random_graph(rng, n, p)
    assume(f.is_connected())
    h = line_graph(f)
    root = line_graph_root(h.relabel(random_permutation(rng, h.n)))
    triangle = f.n == 3 and f.edge_count() == 3
    assert brute_is_isomorphic(root, star_graph(3) if triangle else f)


@settings(deadline=None)
@given(graphs(7), st.booleans())
def test_krausz_parts_partition_the_edges(g, of_line_graph):
    h = line_graph(g) if of_line_graph and g.edge_count() else g
    parts = krausz_partition(h)
    assume(parts is not None)
    pairs = [p for part in parts
             for p in itertools.combinations([v for v in range(h.n) if part >> v & 1], 2)]
    assert all(h.has_edge(u, v) for u, v in pairs)   # each part is a clique
    edges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if h.has_edge(u, v)]
    assert sorted(pairs) == edges                    # that covers each edge once
    assert all(sum(part >> v & 1 for part in parts) <= 2 for v in range(h.n))


@settings(deadline=None)
@given(st.integers(4, 8), st.floats(0.2, 0.6), st.randoms())
def test_graphs_with_an_induced_claw_have_no_krausz_partition(n, p, rng):
    g = random_graph(rng, n, p)   # sparse enough for claws, dense enough for cliques
    assume(brute_contains_induced(g, star_graph(3)))
    assert krausz_partition(g) is None


@functools.cache
def _class_i_graphs() -> tuple[tuple[Graph, Graph], ...]:
    """Every class on <= 6 vertices with its i-graph skeleton, in the scan's
    order, from ``i_graph`` with no gate."""
    return tuple((g, i_graph(g).skeleton) for n, level in _class_levels(6, False)
                 for g in (Graph._from_mask(n, m) for m in level))


@st.composite
def scan_targets(draw):
    # a relabelled i-graph of some class hits at least that class; a random
    # graph on <= 8 vertices mostly misses
    if draw(st.booleans()):
        return draw(graphs(8))
    _, skeleton = draw(st.sampled_from(_class_i_graphs()))
    return skeleton.relabel(draw(st.permutations(range(skeleton.n))))


@settings(deadline=None, max_examples=50)
@given(st.lists(scan_targets(), min_size=1, max_size=6))
def test_scan_reports_what_an_ungated_i_graph_loop_finds(targets):
    expected = [SearchReport(t, 6, False, 208,
                             tuple(g for g, skel in _class_i_graphs() if is_isomorphic(skel, t)),
                             0)
                for t in targets]
    assert [dataclasses.replace(r, elapsed=0) for r in scan_for_targets(targets, 6)] == expected
