import argparse
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
    maximal_independent_sets,
    obstruction_t_graph,
    path_graph,
    scan_for_targets,
    star_graph,
    theta_graph,
    theta_specs_up_to,
    to_graph6,
    verify_table,
    wheel_graph,
)
from islide.cli import cmd_lemmas
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
# the corroborate workload's targets: the seven theta exceptions (the first
# is the diamond), the obstruction T, and the controls house and C5
CORROBORATE = ([theta_graph(*spec) for spec in sorted(THETA_EXCEPTIONS)]
               + [obstruction_t_graph(), house_graph(), cycle_graph(5)])


def _brute_i_graph(g: Graph) -> Graph:
    """The i-graph skeleton of g from the oracles alone."""
    sets = brute_maximal_independent_sets(g)
    best = min(s.bit_count() for s in sets)
    return Graph._from_rows(brute_slide_rows(g, sorted(s for s in sets if s.bit_count() == best)))


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
    # isomorphic to the target, in (n, canonical mask) order; the targets
    # are the ten corroborate targets and the oracle i-graph of every class
    # on <= 4 vertices (C4, the i-graph of 2K2, among them)
    classes = [g for n in range(1, 6) for g in brute_classes(n)]
    assert len(classes) == 52
    assert [g.n for g in classes[:19]] == [1, 2, 2] + [3] * 4 + [4] * 11 + [5]
    skeletons = [_brute_i_graph(g) for g in classes]
    targets = CORROBORATE + skeletons[:18]
    assert any(is_isomorphic(t, cycle_graph(4)) for t in targets)
    reports = scan_for_targets(targets, 5)
    for i, (t, rep) in enumerate(zip(targets, reports)):
        expected = [g for g, skel in zip(classes, skeletons) if brute_is_isomorphic(skel, t)]
        # the two controls and every class's own i-graph have a seed here
        assert bool(expected) is (i >= 8)
        assert len(rep.witnesses) == len(expected)
        for w in rep.witnesses:
            assert canonical_key(w) == (w.n, w._edge_mask())
            assert sum(brute_is_isomorphic(w, g) for g in expected) == 1
        for g in expected:
            assert any(brute_is_isomorphic(w, g) for w in rep.witnesses)
        order = [(w.n, w._edge_mask()) for w in rep.witnesses]
        assert order == sorted(order)
        assert rep.graphs_examined == len(classes)


def test_only_a_class_whose_i_set_count_is_a_target_order_builds_a_slide_graph(monkeypatch):
    # 57 of the 208 classes on <= 6 vertices have an i-set count that one of
    # the ten corroborate targets has as its order; no class on <= 4
    # vertices has five i-sets
    import islide.search

    real = islide.search.build_slide_graph
    built = []

    def counted(g, family):
        built.append(g)
        return real(g, family)

    monkeypatch.setattr(islide.search, "build_slide_graph", counted)
    reports = scan_for_targets(CORROBORATE, max_n=6)
    assert reports[0].graphs_examined == 208
    assert len(built) == 57
    built.clear()
    rep = scan_for_targets([cycle_graph(5)], max_n=4)[0]
    assert rep.graphs_examined == 18 and not rep.found
    assert built == []


def test_a_warm_scan_starts_no_pool(monkeypatch):
    # every level to 6 is stored after the first scan, so two jobs test the
    # classes in this process
    import dataclasses
    import multiprocessing

    serial = scan_for_targets(TEN_TARGETS, max_n=6)

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm scan started a pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    parallel = scan_for_targets(TEN_TARGETS, max_n=6, jobs=2)
    assert ([dataclasses.replace(r, elapsed=0) for r in parallel]
            == [dataclasses.replace(r, elapsed=0) for r in serial])


def test_parallel_scan_matches_serial(store):
    # the pool ships all ten targets to its workers; it starts only for a
    # level that is not stored, so the parallel scan starts cold
    serial = scan_for_targets(TEN_TARGETS, max_n=5, jobs=1)
    store.clear()
    parallel = scan_for_targets(TEN_TARGETS, max_n=5, jobs=2)
    assert serial[0].found and serial[0].witnesses == serial[7].witnesses
    for a, b in zip(serial, parallel):
        assert a.graphs_examined == b.graphs_examined
        assert [w.adj for w in a.witnesses] == [w.adj for w in b.witnesses]


def test_parallel_find_matches_serial(store):
    # find-style scans stop early; the pool must stop after the same chunk
    for target in (cycle_graph(4), theta_graph(1, 2, 3), cycle_graph(5)):
        for connected_only in (False, True):
            reports = []
            for jobs in (1, 2):
                store.clear()
                reports.append(scan_for_targets([target], 6, connected_only=connected_only,
                                                jobs=jobs, stop_at_first=True)[0])
            serial, parallel = reports
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


@pytest.fixture
def store(monkeypatch):
    """The process's level store, empty for this test; the one it replaces
    comes back after."""
    import islide.search

    levels = {}
    monkeypatch.setattr(islide.search, "_LEVELS", levels)
    return levels


A000088 = [1, 2, 4, 11, 34, 156, 1044, 12346]
A001349 = [1, 1, 2, 6, 21, 112, 853, 11117]


def _complete(store):
    """The stored levels are the first len(store) levels, each whole."""
    assert sorted(store) == list(range(1, len(store) + 1))
    assert [len(store[n]) for n in sorted(store)] == A000088[:len(store)]


def test_class_levels_match_oeis_through_8(store):
    # the max-degree generator against A000088 (all classes) and A001349
    # (connected classes); level 8 is built once, and a warm walk reads
    # what the cold one built
    full = dict(_class_levels(8, connected_only=False))
    assert [len(full[n]) for n in range(1, 9)] == A000088
    connected = {n: [m for m in level if Graph._from_mask(n, m).is_connected()]
                 for n, level in full.items()}
    assert [len(connected[n]) for n in range(1, 9)] == A001349
    assert dict(_class_levels(8, connected_only=False)) == full
    assert dict(_class_levels(8, connected_only=True)) == connected
    assert len(store) == 8
    for n, level in full.items():
        assert level == sorted(set(level))
        if n <= 6:
            assert all(canonical_key(Graph._from_mask(n, m)) == (n, m) for m in level)


@pytest.fixture
def labellings(monkeypatch, store):
    """A one-item list counting the canonical labellings (``_canonical``
    calls) made from here on, from an empty level store."""
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
    assert [len(level) for _, level in _class_levels(7, False)] == A000088[:7]
    assert labellings[0] == 1847


def test_scan_labels_only_for_the_class_walk(labellings, store):
    # is_isomorphic decides every match without labelling, so a cold scan of
    # the ten corroborate targets labels exactly what a cold walk of its
    # levels does, and a second scan reads the stored levels and labels nothing
    import dataclasses

    cold = scan_for_targets(CORROBORATE, max_n=6)
    scanned, labellings[0] = labellings[0], 0
    warm = scan_for_targets(CORROBORATE, max_n=6)
    assert labellings[0] == 0
    assert ([dataclasses.replace(r, elapsed=0) for r in warm]
            == [dataclasses.replace(r, elapsed=0) for r in cold])
    store.clear()
    list(_class_levels(6, False))
    assert scanned == labellings[0] == 290


def test_an_early_stop_stores_only_the_levels_it_reached(store):
    # C4's first seed, 2K2, has 4 vertices
    rep = scan_for_targets([cycle_graph(4)], 7, stop_at_first=True)[0]
    assert is_isomorphic(rep.witnesses[0], disjoint_union(path_graph(2), path_graph(2)))
    assert len(store) == 4
    _complete(store)


def test_a_failed_build_stores_only_complete_levels(store):
    def fails_on_fourth_parent(fn, items):
        for i, item in enumerate(items):
            if i == 3:
                raise RuntimeError("worker lost")
            yield fn(item)

    # level 4 is the first with four parents
    with pytest.raises(RuntimeError, match="worker lost"):
        list(_class_levels(6, False, run=fails_on_fourth_parent))
    assert len(store) == 3
    _complete(store)
    assert [len(level) for _, level in _class_levels(6, False)] == A000088[:6]
    _complete(store)


def test_a_level_built_twice_is_stored_once(store):
    first = []

    def builds_level_4_first(fn, items):
        if len(store) == 3:
            list(_class_levels(4, False))
            first.append(store[4])
        return map(fn, items)

    levels = list(_class_levels(5, False, run=builds_level_4_first))
    assert [len(level) for _, level in levels] == A000088[:5]
    assert store[4] is first[0]
    _complete(store)


def test_a_yielded_level_is_a_copy(store):
    for _, level in _class_levels(5, connected_only=False):
        level.clear()
    _complete(store)
    assert [len(level) for _, level in _class_levels(5, False)] == A000088[:5]


def test_a_parallel_fill_stores_what_a_serial_one_does(store):
    scan_for_targets([house_graph()], 7, jobs=2)
    parallel = dict(store)
    store.clear()
    scan_for_targets([house_graph()], 7, jobs=1)
    assert store == parallel
    _complete(store)


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
    for bad in (2, 3, 27):
        with pytest.raises(InvalidParameterError, match="max_total must lie in 4..26"):
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


def _lemmas(**flags):
    return cmd_lemmas(argparse.Namespace(**{"wheel_max": 4, "fan_max": 2, "line_max": 2, **flags}))


# one call per size, count or bound a caller passes
INT_PARAMETERS = {
    "size": cycle_graph,
    "star size": star_graph,
    "cap": lambda v: maximal_independent_sets(cycle_graph(5), cap=v),
    "n": lambda v: list(enumerate_labeled_graphs(v)),
    "max_n": lambda v: scan_for_targets([diamond_graph()], v),
    "jobs": lambda v: scan_for_targets([diamond_graph()], 3, jobs=v),
    "max_total": verify_table,
    "corroborate_max_n": lambda v: verify_table(26, corroborate_max_n=v),
    "table jobs": lambda v: verify_table(26, jobs=v),
    "max_order": theta_specs_up_to,
    "--wheel-max": lambda v: _lemmas(wheel_max=v),
    "--fan-max": lambda v: _lemmas(fan_max=v),
    "--line-max": lambda v: _lemmas(line_max=v),
}


@pytest.mark.parametrize("bad", [True, 4.0], ids=["bool", "float"])
@pytest.mark.parametrize("name", INT_PARAMETERS)
def test_integer_parameters_reject_a_bool_or_float_before_work(monkeypatch, capsys, name, bad):
    # a bool used to pass as 1 and a float to fail with a bare TypeError,
    # for verify_table only after every seed of the table was built
    import islide.seeds

    def no_work(*args, **kwargs):
        raise AssertionError("a seed was built before the parameters were checked")

    monkeypatch.setattr(islide.seeds, "verify_theta_seed", no_work)
    monkeypatch.setattr(islide.seeds, "build_theta_seed_complement", no_work)
    with pytest.raises(InvalidParameterError, match=f"{bad!r} is not an int"):
        INT_PARAMETERS[name](bad)
    assert capsys.readouterr().out == ""


def test_verify_table_reports_a_failed_seed(monkeypatch):
    import dataclasses
    import islide.seeds
    from islide.seeds import ClauseResult

    real = islide.seeds.check_seed

    def tampered(result):
        return dataclasses.replace(real(result),
                                   clauses=(ClauseResult("i_value", False, "tampered"),))

    monkeypatch.setattr(islide.seeds, "check_seed", tampered)
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


def test_scan_starts_no_more_workers_than_cpus(monkeypatch, store):
    import multiprocessing
    import os
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

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = scan_for_targets([house_graph()], 5)
    assert started == [] and serial[0].found
    store.clear()
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
