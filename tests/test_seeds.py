import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from islide import (
    CapacityError,
    DeletionPreconditionError,
    Graph,
    InvalidParameterError,
    InvalidThetaSpecError,
    THETA_EXCEPTIONS,
    ThetaSpec,
    applicable_constructions,
    apply_deletion,
    bits,
    build_slide_graph,
    build_theta_seed_complement,
    complete_graph,
    seed_graph_334,
    independence_report,
    is_isomorphic,
    i_graph,
    mask_of,
    theta_graph,
    theta_specs_up_to,
    to_graph6,
    verify_theta_seed,
)

import islide.iso
from islide.seeds import _ARMS, ClauseResult, _build, _freeze, _name_key, check_seed, verify_table
from bruteforce import random_graph, reference_check_seed


DISPATCH_CASES = [
    ((1, 2, 3), "LINE_ROOT"),
    ((1, 2, 9), "LINE_ROOT"),
    ((1, 3, 3), "C_1kl"),
    ((1, 4, 5), "C_1kl"),
    ((2, 2, 5), "C_22l_b"),
    ((2, 2, 6), "C_22l_a"),
    ((2, 3, 5), "C_23l_b"),
    ((2, 3, 6), "C_23l_a"),
    ((2, 4, 4), "C_244"),
    ((2, 4, 5), "C_2k5"),
    ((2, 5, 5), "C_2k5"),
    ((2, 4, 6), "C_2kl"),
    ((2, 6, 7), "C_2kl"),
    ((3, 3, 4), "G_334"),
    ((3, 3, 5), "C_335"),
    ((3, 3, 6), "C_33l"),
    ((3, 4, 4), "C_344"),
    ((3, 4, 5), "C_34l"),
    ((3, 4, 7), "C_34l"),
    ((3, 5, 5), "C_355"),
    ((4, 4, 4), "C_444"),
    ((4, 4, 5), "C_jk5"),
    ((4, 5, 5), "C_jk5"),
    ((5, 5, 5), "C_jk5"),
    ((3, 5, 6), "C_jkl"),
    ((4, 4, 6), "C_jkl"),
    ((6, 6, 6), "C_jkl"),
]


@pytest.mark.parametrize("jkl,arm", DISPATCH_CASES)
def test_dispatch_picks_documented_arm(jkl, arm):
    res = build_theta_seed_complement(*jkl)
    assert res.is_realizable
    assert res.trace.construction_id == arm


def test_exceptions_not_realizable():
    for jkl, reason in THETA_EXCEPTIONS.items():
        res = build_theta_seed_complement(*jkl)
        assert res.verdict == "not_realizable"
        assert res.reason == reason
        assert applicable_constructions(ThetaSpec(*jkl)) == []


SEED_ENTRY_POINTS = (build_theta_seed_complement, verify_theta_seed)


def test_invalid_specs():
    # a malformed triple and one above 64 vertices raise from both calls
    for jkl, error, reason in [
        ((1, 1, 4), InvalidThetaSpecError, "two paths of length 1"),
        ((3, 2, 4), InvalidThetaSpecError, "lengths must satisfy j <= k <= l"),
        ((0, 1, 1), InvalidThetaSpecError, "path lengths must be positive"),
        ((30, 30, 30), CapacityError, "89 vertices"),
    ]:
        for fn in SEED_ENTRY_POINTS:
            with pytest.raises(error, match=reason):
                fn(*jkl)


def test_boolean_lengths_are_invalid_specs():
    # bool is a subclass of int, but True is not a path length
    for jkl in [(True, 4, 5), (1, True, 5), (2, 3, True)]:
        for fn in SEED_ENTRY_POINTS:
            with pytest.raises(InvalidThetaSpecError, match="^non-integer lengths"):
                fn(*jkl)


def test_overlapping_arms_both_verify():
    for jkl in [(3, 3, 7), (3, 4, 6), (3, 4, 8)]:
        spec = ThetaSpec(*jkl)
        arms = applicable_constructions(spec)
        assert len(arms) == 2
        for arm in arms:
            assert check_seed(_build(arm, spec)).passed


def test_trace_names_are_bijection():
    for jkl in [(1, 4, 5), (2, 2, 7), (2, 5, 5), (3, 3, 4), (4, 4, 6), (5, 5, 5)]:
        res = build_theta_seed_complement(*jkl)
        names = res.trace.names
        assert sorted(names.values()) == list(range(res.gbar.n))


def test_expected_labels_are_isets():
    for spec in theta_specs_up_to(12):
        jkl = spec.as_tuple()
        if jkl in THETA_EXCEPTIONS:
            continue
        res = build_theta_seed_complement(*jkl)
        rep = independence_report(res.gbar.complement())
        for tag, mask in res.trace.expected_labels.items():
            assert mask in rep.i_sets, (jkl, tag)


def test_expected_labels_are_triangles_of_gbar():
    res = build_theta_seed_complement(2, 2, 5)
    adj = res.gbar.adj
    for mask in res.trace.expected_labels.values():
        u, v, w = bits(mask)
        # three mutually adjacent vertices of gbar with no common neighbour
        assert adj[u] >> v & 1 and adj[u] >> w & 1 and adj[v] >> w & 1
        assert not adj[u] & adj[v] & adj[w]
    assert len(res.trace.expected_labels) == 8
    assert set(res.trace.expected_labels) == {
        "X", "Y", "A", "B", "D_1", "D_2", "D_3", "D_4",
    }


def test_seed_construction_is_byte_stable():
    first = to_graph6(build_theta_seed_complement(3, 4, 6).gbar)
    second = to_graph6(build_theta_seed_complement(3, 4, 6).gbar)
    assert first == second


def test_freeze_rejects_an_edge_repeated_in_either_orientation():
    rim = ["w1", "w2", "w3"]
    # w1-w2 is a rim edge already; v1-w1 is repeated among the extra edges
    for extra in ([("w1", "w2")], [("w2", "w1")], [("v1", "w1"), ("v1", "w1")],
                  [("v1", "w1"), ("w1", "v1")]):
        with pytest.raises(InvalidParameterError, match="duplicate edge"):
            _freeze(rim, extra)
    gbar, names = _freeze(rim, [("v1", "w1")])
    assert list(names) == ["w0", "w1", "w2", "w3", "v1"]
    assert gbar.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3)]


def test_name_key_raises_on_an_unexpected_name_on_every_call():
    assert [_name_key(v) for v in ("w0", "w3", "u1", "v2", "z", "z'")] == [
        (0, 0), (1, 6), (2, 2), (3, 4), (4, 0), (4, 1)]
    for name in ("x1", "w1''", "W1"):
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="unexpected vertex name"):
                _name_key(name)


def test_1kl_seed_matches_hand_transcription():
    # canonical order w0, w1..w5, v1..v3: hub-and-rim wheel, then the path
    # fanned onto w2 with its ends tied to w1 and w3
    from islide import Graph, from_graph6

    expected = Graph(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
         (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
         (6, 7), (7, 8),
         (2, 6), (2, 7), (2, 8),
         (1, 6), (3, 8)],
    )
    gbar = build_theta_seed_complement(1, 4, 5).gbar
    assert gbar == expected
    assert to_graph6(gbar) == "H|fJ@Cp"
    assert from_graph6("H|fJ@Cp") == expected


def test_catalog_bytes_are_pinned():
    # every spec of order <= 26, then <= 40, under every arm that covers it:
    # arm id, the complement seed as graph6 and the trace JSON, one line each
    for max_order, count, expected in [
        (26, 574, "f4242460b069ea778ef70db727a1005a969ebafd77524584ca8a788735f714d2"),
        (40, 1994, "f04afcfcf2f3535e128bfca4e22634227bcdf933a0dce69a9e9f2671602bc7c3"),
    ]:
        lines = []
        for spec in theta_specs_up_to(max_order):
            for arm in applicable_constructions(spec):
                r = _build(arm, spec)
                lines.append(f"{arm} {to_graph6(r.gbar)} {r.trace.to_json()}")
        assert len(lines) == count
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == expected


def test_verify_examples():
    v = verify_theta_seed(1, 4, 5)
    assert v.passed
    rep = independence_report(v.gbar.complement())
    assert len(rep.i_sets) == 9

    v = verify_theta_seed(2, 2, 5)
    assert v.passed
    assert independence_report(v.gbar.complement()).alpha == 4

    v = verify_theta_seed(3, 3, 4)
    assert v.passed
    assert len(independence_report(v.gbar.complement()).i_sets) == 9


def test_verify_passed_is_read_from_the_clauses():
    v = verify_theta_seed(1, 4, 5)
    tampered = dataclasses.replace(v, clauses=v.clauses + (ClauseResult("extra", False, "x"),))
    assert v.passed is True and tampered.passed is False
    assert tampered.failures() == [ClauseResult("extra", False, "x")]


def _clauses(v):
    return [(c.name, c.passed, c.detail) for c in v.clauses]


def _built_seeds(max_order):
    for spec in theta_specs_up_to(max_order):
        for arm in applicable_constructions(spec):
            yield spec, _build(arm, spec)


def test_check_seed_matches_reference_on_every_arm():
    arms = []
    for _, r in _built_seeds(14):
        assert _clauses(check_seed(r)) == reference_check_seed(r), r.trace.construction_id
        arms.append(r.trace.construction_id)
    assert len(arms) == 89 and set(arms) == set(_ARMS)


def test_check_seed_matches_reference_on_tampered_results():
    # other thetas of each order, a flipped gbar edge and a wrong alpha must
    # each give the reference's clauses, and each tampering must fail somewhere
    by_order = {}
    for spec in theta_specs_up_to(14):
        by_order.setdefault(spec.order, []).append(spec.as_tuple())
    failed = {"params": 0, "edge": 0, "alpha": 0}
    for spec, r in _built_seeds(14):
        tampered = []
        others = [t for t in by_order[spec.order] if t != spec.as_tuple()]
        if others:
            other = others[spec.order % len(others)]
            tampered.append(("params", dataclasses.replace(
                r, trace=dataclasses.replace(r.trace, params=other))))
        u, v = spec.order % r.gbar.n, (spec.order + 1) % r.gbar.n
        rows = list(r.gbar.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        tampered.append(("edge", dataclasses.replace(r, gbar=Graph._from_rows(rows))))
        wrong = 4 if r.trace.expected_alpha != 4 else 3
        tampered.append(("alpha", dataclasses.replace(
            r, trace=dataclasses.replace(r.trace, expected_alpha=wrong))))
        for kind, t in tampered:
            want = reference_check_seed(t)
            assert _clauses(check_seed(t)) == want, (kind, r.trace.construction_id)
            failed[kind] += not all(passed for _, passed, _ in want)
    assert all(failed.values()), failed


def _count_walk(monkeypatch):
    """Count ``iso._canonical`` calls (labellings) and ``iso._refine`` calls,
    one per node of an individualization tree the search walks."""
    counts = {"labellings": 0, "nodes": 0}
    for name, kind in (("_canonical", "labellings"), ("_refine", "nodes")):
        def counted(*args, real=getattr(islide.iso, name), kind=kind):
            counts[kind] += 1
            return real(*args)

        monkeypatch.setattr(islide.iso, name, counted)
    return counts


@pytest.mark.parametrize("jkl,nodes", [((3, 3, 6), 6), ((2, 2, 5), 6)])
def test_check_seed_decides_isomorphism_without_labelling(monkeypatch, jkl, nodes):
    # (3,3,6) is well covered, so its alpha-graph is its i-graph; (2,2,5)
    # has alpha 4 and builds a separate alpha-graph, which differs from the
    # target in order and is never walked
    counts = _count_walk(monkeypatch)
    assert verify_theta_seed(*jkl).passed
    assert counts == {"labellings": 0, "nodes": nodes}


def test_catalog_decides_isomorphism_without_labelling(monkeypatch):
    # one path of the i-graph's tree and a matching walk of the target's;
    # two canonical labellings per realizable spec walked 4,022 nodes
    counts = _count_walk(monkeypatch)
    report = verify_table(26, corroborate_max_n=0)
    assert report.passed
    assert sum(e.outcome == "verified" for e in report.entries) == 543
    assert counts == {"labellings": 0, "nodes": 2404}


def test_verify_rejects_exceptions():
    with pytest.raises(InvalidParameterError):
        verify_theta_seed(2, 2, 4)


def test_line_route_seed_has_i_two():
    for l in (3, 4, 7):
        res = build_theta_seed_complement(1, 2, l)
        rep = independence_report(res.gbar.complement())
        assert rep.i == rep.alpha == 2
        assert len(rep.i_sets) == l + 2
        assert verify_theta_seed(1, 2, l).passed


def test_seed_graph_334_isets():
    g = seed_graph_334()
    rep = independence_report(g)
    assert rep.i == 3
    assert len(rep.i_sets) == 9
    expected = {
        mask_of(vs)
        for vs in [
            (2, 6, 8), (3, 5, 8), (2, 4, 8), (4, 5, 8), (1, 6, 8),
            (1, 3, 8), (2, 6, 7), (5, 6, 7), (3, 5, 7),
        ]
    }
    assert set(rep.i_sets) == expected
    assert is_isomorphic(i_graph(g).skeleton, theta_graph(3, 3, 4))


def test_trace_json_fields():
    res = build_theta_seed_complement(2, 4, 4)
    payload = json.loads(res.trace.to_json())
    for key in ("construction_id", "params", "names", "expected_labels",
                "expected_order", "alpha_equal"):
        assert key in payload
    assert payload["construction_id"] == "C_244"
    assert payload["params"] == [2, 4, 4]
    assert payload["expected_order"] == 9


def test_apply_deletion_removes_exactly_one_iset():
    res = build_theta_seed_complement(1, 4, 5)
    gbar = res.gbar
    before = set(independence_report(gbar.complement()).i_sets)
    target = res.trace.expected_labels["X"]
    after_gbar = apply_deletion(gbar, target)
    after = set(independence_report(after_gbar.complement()).i_sets)
    assert before - after == {target}
    assert after == before - {target}
    # dropping a pole of theta(1,4,5) leaves its seven-node remainder
    sg = build_slide_graph(after_gbar.complement(), list(after))
    full = i_graph(gbar.complement())
    pole_index = full.nodes.index(target)
    remainder, _ = full.skeleton.induced(
        full.skeleton.full_mask() & ~(1 << pole_index)
    )
    assert is_isomorphic(sg.skeleton, remainder)


def test_apply_deletion_preconditions():
    res = build_theta_seed_complement(1, 4, 5)
    gbar = res.gbar
    with pytest.raises(DeletionPreconditionError):
        apply_deletion(gbar, mask_of([0, 1]))
    with pytest.raises(DeletionPreconditionError):
        apply_deletion(gbar, mask_of([0, 1, gbar.n]))
    with pytest.raises(DeletionPreconditionError):
        apply_deletion(gbar, mask_of([0, 1, 3]))  # not mutually adjacent
    once = apply_deletion(gbar, res.trace.expected_labels["X"])
    with pytest.raises(DeletionPreconditionError):
        # the apexed triangle now sits inside a K_4
        apply_deletion(once, res.trace.expected_labels["X"])
    # the complement of K_3 is edgeless, and its one i-set is all three vertices
    with pytest.raises(DeletionPreconditionError, match="only i-set"):
        apply_deletion(complete_graph(3), 0b111)


def test_apply_deletion_rejects_a_target_that_is_not_an_int():
    # a float used to fail with a bare TypeError, and True to pass as vertex 0
    gbar = build_theta_seed_complement(1, 4, 5).gbar
    for bad in (1.0, True, "7"):
        with pytest.raises(InvalidParameterError, match=f"t {bad!r} is not an int"):
            apply_deletion(gbar, bad)


def _check_deletion(g, idx):
    # deleting the idx-th i-set of g leaves the i-graph with that node
    # removed: the same sets in the same order, the induced skeleton
    sg = i_graph(g)
    after = i_graph(apply_deletion(g.complement(), sg.nodes[idx]).complement())
    assert after.nodes == sg.nodes[:idx] + sg.nodes[idx + 1:]
    assert after.skeleton == sg.skeleton.induced(sg.skeleton.full_mask() & ~(1 << idx))[0]


def test_apply_deletion_leaves_i_graph_minus_the_set():
    # every i-set of every realizable theta seed of order <= 14, including
    # the i = 2 LINE_ROOT seeds, whose i-sets are not triangles of gbar
    done = 0
    for spec in theta_specs_up_to(14):
        if spec.as_tuple() in THETA_EXCEPTIONS:
            continue
        g = build_theta_seed_complement(*spec.as_tuple()).gbar.complement()
        for idx in range(len(independence_report(g).i_sets)):
            _check_deletion(g, idx)
            done += 1
    assert done == 940


@settings(deadline=None)
@given(st.integers(1, 10), st.floats(0, 1), st.integers(0, 2**32), st.integers(0, 2**16))
def test_apply_deletion_on_random_graphs(n, p, seed, pick):
    g = random_graph(random.Random(seed), n, p)
    count = len(independence_report(g).i_sets)
    assume(count >= 2)
    _check_deletion(g, pick % count)


def test_apply_deletion_random_triangles_across_corpus():
    rng = random.Random(97)
    done = 0
    specs = [s for s in theta_specs_up_to(12)
             if s.as_tuple() not in THETA_EXCEPTIONS and s.j >= 2]
    while done < 25:
        spec = rng.choice(specs)
        res = build_theta_seed_complement(*spec.as_tuple())
        gbar = res.gbar
        before = set(independence_report(gbar.complement()).i_sets)
        if len(before) < 2:
            continue
        target = rng.choice(sorted(before))
        after_gbar = apply_deletion(gbar, target)
        after = set(independence_report(after_gbar.complement()).i_sets)
        assert before - after == {target} and after < before
        done += 1
