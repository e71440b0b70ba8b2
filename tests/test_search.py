import json

import pytest

from islide import (
    THETA_EXCEPTIONS,
    Graph,
    InvalidParameterError,
    canonical_key,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    enumerate_labeled_graphs,
    from_graph6,
    house_graph,
    i_graph,
    is_isomorphic,
    obstruction_t_graph,
    path_graph,
    scan_for_targets,
    star_graph,
    theta_graph,
    to_graph6,
    verify_table,
    wheel_graph,
)
from islide.search import _class_levels

from bruteforce import (
    brute_classes,
    brute_is_isomorphic,
    brute_maximal_independent_sets,
    brute_slide_rows,
    house_seed_graph,
)

# two are the same class (the house is theta(1,2,3)), and C6 and 2K3 share
# a degree sequence
TEN_TARGETS = [house_graph(), cycle_graph(5), cycle_graph(6),
               disjoint_union(complete_graph(3), complete_graph(3)), path_graph(4),
               star_graph(3), complete_graph(4), theta_graph(1, 2, 3), diamond_graph(),
               theta_graph(2, 2, 2)]


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64
    assert sum(1 for _ in enumerate_labeled_graphs(5)) == 1024


def test_enumeration_bounds():
    with pytest.raises(InvalidParameterError):
        list(enumerate_labeled_graphs(0))
    with pytest.raises(InvalidParameterError):
        list(enumerate_labeled_graphs(9))


def test_find_k1_seed():
    rep = scan_for_targets([complete_graph(1)], 2, stop_at_first=True)[0]
    assert rep.found
    assert rep.witnesses[0].n == 1


def test_find_c4_seed_includes_wheel_complement():
    rep = scan_for_targets([cycle_graph(4)], 5)[0]
    assert rep.found
    target_seed = wheel_graph(4).complement()
    assert any(is_isomorphic(w, target_seed) for w in rep.witnesses)
    for w in rep.witnesses:
        assert is_isomorphic(i_graph(w).skeleton, cycle_graph(4))


def test_find_house_seed():
    rep = scan_for_targets([theta_graph(1, 2, 3)], 5, stop_at_first=True)[0]
    assert rep.found
    assert is_isomorphic(rep.witnesses[0], house_seed_graph())


def test_sanity_inversion_k3():
    rep = scan_for_targets([complete_graph(3)], 3)[0]
    assert rep.found
    assert is_isomorphic(rep.witnesses[0], complete_graph(3))


def test_diamond_has_no_seed_up_to_six():
    rep = scan_for_targets([diamond_graph()], 6)[0]
    assert not rep.found
    assert rep.graphs_examined == 1 + 2 + 4 + 11 + 34 + 156  # A000088, n = 1..6


def test_scan_matches_bruteforce_oracle():
    # witnesses are one canonical graph per oracle class (labeled graphs
    # grouped by the all-permutations check) whose oracle i-graph is
    # isomorphic to the target, in (n, canonical mask) order
    targets = (cycle_graph(4), theta_graph(1, 2, 3))
    classes = [g for n in range(1, 6) for g in brute_classes(n)]
    assert len(classes) == 52
    expected = {t: [] for t in targets}
    for g in classes:
        sets = brute_maximal_independent_sets(g)
        best = min(s.bit_count() for s in sets)
        isets = sorted(s for s in sets if s.bit_count() == best)
        skel = Graph._from_rows(brute_slide_rows(g, isets))
        for t in targets:
            if brute_is_isomorphic(skel, t):
                expected[t].append(g)
    for t in targets:
        rep = scan_for_targets([t], 5)[0]
        assert expected[t]
        assert len(rep.witnesses) == len(expected[t])
        for w in rep.witnesses:
            assert canonical_key(w) == (w.n, w._edge_mask())
            assert sum(brute_is_isomorphic(w, g) for g in expected[t]) == 1
        for g in expected[t]:
            assert any(brute_is_isomorphic(w, g) for w in rep.witnesses)
        order = [(w.n, w._edge_mask()) for w in rep.witnesses]
        assert order == sorted(order)
        assert rep.graphs_examined == len(classes)


def test_parallel_scan_matches_serial():
    # the pool ships all ten targets to its workers
    serial = scan_for_targets(TEN_TARGETS, max_n=5, jobs=1)
    parallel = scan_for_targets(TEN_TARGETS, max_n=5, jobs=2)
    assert serial[0].found and serial[0].witnesses == serial[7].witnesses
    for a, b in zip(serial, parallel):
        assert a.graphs_examined == b.graphs_examined
        assert [w.adj for w in a.witnesses] == [w.adj for w in b.witnesses]


def test_parallel_find_matches_serial():
    # find-style scans stop early; the pool must stop after the same chunk
    for target in (cycle_graph(4), theta_graph(1, 2, 3), cycle_graph(5)):
        for connected_only in (False, True):
            serial, parallel = (
                scan_for_targets([target], 6, connected_only=connected_only, jobs=jobs,
                                 stop_at_first=True)[0]
                for jobs in (1, 2))
            assert serial.found
            assert parallel.graphs_examined == serial.graphs_examined
            assert [w.adj for w in parallel.witnesses] == [w.adj for w in serial.witnesses]


def test_stop_at_first_keeps_each_target_first_witness():
    # the bull has two seeds on 6 vertices; a find scans that whole level
    # and keeps the first in (n, canonical mask) order
    bull = from_graph6("DD[")
    full = scan_for_targets([bull], 6)[0]
    first = scan_for_targets([bull], 6, stop_at_first=True)[0]
    assert [to_graph6(w) for w in full.witnesses] == ["EoSw", "EMlw"]
    assert [to_graph6(w) for w in first.witnesses] == ["EoSw"]
    assert first.graphs_examined == full.graphs_examined == 208


def test_connected_only_filter():
    rep = scan_for_targets([cycle_graph(4)], 5, connected_only=True)[0]
    assert all(w.is_connected() for w in rep.witnesses)
    assert rep.graphs_examined == 1 + 1 + 2 + 6 + 21  # A001349, n = 1..5


def test_class_levels_match_oeis_through_8():
    # the max-degree generator against A000088 (all classes) and A001349
    # (connected classes); level 8 is built once
    full = dict(_class_levels(8, connected_only=False))
    assert [len(full[n]) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    connected = {n: [m for m in level if Graph._from_mask(n, m).is_connected()]
                 for n, level in full.items()}
    assert ([len(connected[n]) for n in range(1, 9)]
            == [1, 1, 2, 6, 21, 112, 853, 11117])
    assert dict(_class_levels(7, connected_only=True)) == {n: connected[n] for n in range(1, 8)}
    for n, level in full.items():
        assert level == sorted(set(level))
        if n <= 6:
            assert all(canonical_key(Graph._from_mask(n, m)) == (n, m) for m in level)


@pytest.fixture
def labellings(monkeypatch):
    """A one-item list counting the canonical labellings (``_canonical``
    calls) made from here on."""
    import islide.iso
    import islide.search

    real = islide.iso._canonical
    calls = [0]

    def counted(g):
        calls[0] += 1
        return real(g)

    monkeypatch.setattr(islide.iso, "_canonical", counted)
    monkeypatch.setattr(islide.search, "_canonical", counted)
    return calls


def test_class_levels_label_one_extension_per_orbit(labellings):
    # one labelling per parent for its automorphisms (208 parents), and one
    # per orbit of them on the neighbourhoods of a new maximum-degree vertex
    assert [len(level) for _, level in _class_levels(7, False)] == [1, 2, 4, 11, 34, 156, 1044]
    assert labellings[0] <= 1847


def test_scan_labels_only_for_the_class_walk(labellings):
    # is_isomorphic decides every match without labelling, so a scan of
    # the ten corroborate targets labels exactly what building its levels does
    targets = ([theta_graph(*spec) for spec in sorted(THETA_EXCEPTIONS)]
               + [obstruction_t_graph(), house_graph(), cycle_graph(5)])
    assert len(targets) == 10
    scan_for_targets(targets, max_n=6)
    scanned, labellings[0] = labellings[0], 0
    list(_class_levels(6, False))
    assert scanned == labellings[0] == 290


def test_scan_keys_exactly_what_a_scan_keying_every_class_finds():
    # an independent reference for the scan's matches: key every class's
    # i-graph and every target with canonical_key and compare the keys; the
    # class whose i-graph is C6 also has the degree sequence of 2K3, which no
    # class on up to 6 vertices realizes
    targets = TEN_TARGETS
    expected = {i: [] for i in range(len(targets))}
    for n, level in _class_levels(6, False):
        for mask in level:
            key = canonical_key(i_graph(Graph._from_mask(n, mask)).skeleton)
            for i, t in enumerate(targets):
                if canonical_key(t) == key:
                    expected[i].append((n, mask))
    assert expected[0] == expected[7] and expected[2] and not expected[3]
    reports = scan_for_targets(targets, max_n=6)
    for i, rep in enumerate(reports):
        assert rep.graphs_examined == 208
        assert [(w.n, w._edge_mask()) for w in rep.witnesses] == expected[i]


def test_report_json():
    rep = scan_for_targets([complete_graph(1)], 2, stop_at_first=True)[0]
    payload = json.loads(rep.to_json())
    for key in ("target_graph6", "max_n", "graphs_examined", "witnesses_graph6",
                "elapsed_seconds", "connected_only"):
        assert key in payload


def test_verify_table_small():
    report = verify_table(12, corroborate_max_n=5)
    assert report.passed, report.failures
    outcomes = {e.spec: e.outcome for e in report.entries}
    assert outcomes[(2, 2, 4)] == "exception"
    assert outcomes[(2, 3, 4)] == "exception"
    assert outcomes[(1, 4, 5)] == "verified"
    assert outcomes[(2, 2, 5)] == "verified"
    assert outcomes[(2, 4, 4)] == "verified"
    assert sum(1 for e in report.entries if e.outcome == "exception") == 7
    assert len(report.corroboration) == 7
    assert all(not r.found for r in report.corroboration)


def test_verify_table_rejects_scan_bound_before_work():
    # a negative bound must not pass as a clean table with no scan run,
    # and an out-of-range one must fail before the table is verified
    for bad in (-1, 9):
        with pytest.raises(InvalidParameterError):
            verify_table(26, corroborate_max_n=bad)
    for bad in (2, 27):
        with pytest.raises(InvalidParameterError, match="max_total must lie in 3..26"):
            verify_table(bad)
    report = verify_table(5, corroborate_max_n=0)
    assert report.passed and report.corroboration == ()


def test_verify_table_rejects_jobs_before_work(monkeypatch):
    import islide.seeds

    def no_work(*args, **kwargs):
        raise AssertionError("a seed was built before jobs was checked")

    monkeypatch.setattr(islide.seeds, "verify_theta_seed", no_work)
    monkeypatch.setattr(islide.seeds, "build_theta_seed_complement", no_work)
    for bad in (0, -1):
        with pytest.raises(InvalidParameterError, match="jobs"):
            verify_table(26, corroborate_max_n=7, jobs=bad)


def test_verify_table_reports_a_failed_seed(monkeypatch):
    import dataclasses
    import islide.seeds
    from islide.seeds import ClauseResult

    real = islide.seeds.verify_theta_seed

    def tampered(j, k, l):
        return dataclasses.replace(real(j, k, l),
                                   clauses=(ClauseResult("i_value", False, "tampered"),))

    monkeypatch.setattr(islide.seeds, "verify_theta_seed", tampered)
    report = verify_table(6, corroborate_max_n=0)
    assert report.passed is False
    outcomes = {e.spec: e.outcome for e in report.entries}
    assert outcomes[(1, 2, 3)] == "failed"
    assert outcomes[(1, 2, 2)] == "exception"
    assert "theta(1,2,3): i_value: tampered" in report.failures


def test_verify_table_reports_a_witness_as_fatal(monkeypatch):
    import islide.seeds
    from islide.search import SearchReport

    def first_target_seeded(targets, max_n, jobs=1):
        return [SearchReport(t, max_n, False, 0, (t,) if i == 0 else (), 0.0)
                for i, t in enumerate(targets)]

    monkeypatch.setattr(islide.seeds, "scan_for_targets", first_target_seeded)
    report = verify_table(6, corroborate_max_n=4)
    assert report.passed is False
    assert report.failures == (
        f"FATAL: witness found for claimed non-realizable target {to_graph6(theta_graph(1, 2, 2))}",)


def test_scan_starts_no_more_workers_than_cpus(monkeypatch):
    import os
    import islide.search
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(islide.search, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = scan_for_targets([house_graph()], 5)
    assert started == [] and serial[0].found
    wide = scan_for_targets([house_graph()], 5, jobs=100000)
    assert started == [2]
    assert wide[0].witnesses == serial[0].witnesses


def test_search_bounds():
    from islide import path_graph

    with pytest.raises(InvalidParameterError):
        scan_for_targets([cycle_graph(4)], 9)
    with pytest.raises(InvalidParameterError):
        scan_for_targets([path_graph(31)], 4)


def test_scan_needs_at_least_one_job():
    with pytest.raises(InvalidParameterError):
        scan_for_targets([cycle_graph(4)], 3, jobs=0)
    with pytest.raises(InvalidParameterError):
        scan_for_targets([cycle_graph(4)], 3, jobs=-1)


def test_obstruction_minimality():
    # every theta graph induced in the 9-vertex obstruction is realizable,
    # and at least one induced theta exists
    import itertools

    from islide import classify_theta, mask_of

    t = obstruction_t_graph()
    induced_thetas = []
    for r in range(4, t.n + 1):
        for combo in itertools.combinations(range(t.n), r):
            sub, _ = t.induced(mask_of(combo))
            spec = classify_theta(sub)
            if spec is None:
                continue
            induced_thetas.append(spec.as_tuple())
            assert spec.as_tuple() not in THETA_EXCEPTIONS
    assert induced_thetas
    assert classify_theta(t) is None
