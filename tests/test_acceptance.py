"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
output.  The non-realizability scan (criterion 5) visits each of the 1,252
isomorphism classes of graphs on up to 7 vertices once, shared across its
eight targets.
"""
import os
import random
import time

import pytest

from islide import (
    Graph,
    THETA_EXCEPTIONS,
    alpha_graph,
    build_slide_graph,
    build_theta_seed_complement,
    cartesian_product,
    complete_graph,
    contains_induced,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    fan_graph,
    house_graph,
    i_graph,
    independence_report,
    is_isomorphic,
    line_graph,
    mask_of,
    obstruction_t_graph,
    path_graph,
    scan_for_targets,
    structural_violations,
    theta,
    theta_graph,
    theta_specs_up_to,
    verify_theta_seed,
    wheel_graph,
)
from islide.search import _class_levels
from islide.planar import planar_seed

from bruteforce import house_seed_graph, random_graph
from test_planar import cube_with_rotation, hex_prism_with_rotation

JOBS = max(1, min(8, os.cpu_count() or 1))

# slide graphs computed by the earlier criteria, re-checked in criterion 8
_INSTANCES = []


def _register(sg):
    if sg.node_count() <= 200:
        _INSTANCES.append(sg)
    return sg


@pytest.fixture(scope="module")
def sweep_results():
    out = {}
    for spec in theta_specs_up_to(14):
        jkl = spec.as_tuple()
        if jkl in THETA_EXCEPTIONS:
            continue
        out[jkl] = verify_theta_seed(*jkl)
    return out


def test_criterion_01_theta_sweep(sweep_results):
    t0 = time.perf_counter()
    for jkl, verification in sweep_results.items():
        assert verification.passed, (jkl, verification.failures())
        g = verification.gbar.complement()
        rep = independence_report(g)
        sg = _register(build_slide_graph(g, list(rep.i_sets)))
        assert is_isomorphic(sg.skeleton, theta_graph(*jkl)), jkl
        assert sg.node_count() == jkl[0] + jkl[1] + jkl[2] - 1, jkl
        expected_i = 2 if (jkl[0], jkl[1]) == (1, 2) else 3
        assert rep.i == expected_i, jkl
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nPASS criterion 1: theta sweep order<=14, {len(sweep_results)} specs, "
          f"{elapsed:.1f}s")


def test_criterion_02_alpha_equalities(sweep_results):
    alpha_checked = 0
    for jkl, verification in sweep_results.items():
        res = build_theta_seed_complement(*jkl)
        g = res.gbar.complement()
        rep = independence_report(g)
        ag = _register(build_slide_graph(g, list(rep.alpha_sets)))
        if res.trace.alpha_equal:
            assert is_isomorphic(ag.skeleton, theta_graph(*jkl)), jkl
            alpha_checked += 1
        else:
            assert not is_isomorphic(ag.skeleton, theta_graph(*jkl)), jkl
        if res.trace.construction_id in ("C_22l_a", "C_22l_b"):
            ig = build_slide_graph(g, list(rep.i_sets))
            assert not is_isomorphic(ag.skeleton, ig.skeleton), jkl
        if jkl == (2, 3, 5):
            assert rep.alpha == 4
    assert alpha_checked > 0
    print(f"\nPASS criterion 2: alpha-graph equalities on {alpha_checked} specs, "
          "inequalities and alpha(G_235)=4 confirmed")


def test_criterion_03_wheel_and_fan():
    t0 = time.perf_counter()
    for k in range(4, 11):
        g = wheel_graph(k).complement()
        assert is_isomorphic(_register(i_graph(g)).skeleton, cycle_graph(k))
        assert is_isomorphic(_register(alpha_graph(g)).skeleton, cycle_graph(k))
    for k in range(2, 11):
        g = fan_graph(k).complement()
        assert is_isomorphic(_register(i_graph(g)).skeleton, path_graph(k - 1))
        assert is_isomorphic(_register(alpha_graph(g)).skeleton, path_graph(k - 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    print(f"\nPASS criterion 3: wheels k=4..10 and fans k=2..10 in {elapsed:.2f}s")


def test_criterion_04_line_graph_theorem():
    t0 = time.perf_counter()
    checked = 0
    # the check is invariant under relabeling, so one root per class will do
    for n, level in _class_levels(6, connected_only=True):
        for f in (Graph._from_mask(n, mask) for mask in level if n > 1):
            if f.has_triangle():
                continue
            target = line_graph(f)
            sg = i_graph(f.complement())
            assert is_isomorphic(sg.skeleton, target), f.edges()
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 30  # connected triangle-free graphs on 2..6 vertices: 1+1+3+6+19
    assert elapsed < 30
    print(f"\nPASS criterion 4: {checked} classes of connected triangle-free roots on 2..6 "
          f"vertices in {elapsed:.1f}s")


def test_criterion_05_non_realizability_scan():
    targets = {
        "diamond": diamond_graph(),
        "K_{2,3}": theta_graph(2, 2, 2),
        "kappa": theta_graph(2, 2, 3),
        "theta(2,2,4)": theta_graph(2, 2, 4),
        "theta(2,3,3)": theta_graph(2, 3, 3),
        "theta(2,3,4)": theta_graph(2, 3, 4),
        "theta(3,3,3)": theta_graph(3, 3, 3),
        "obstruction T": obstruction_t_graph(),
    }
    t0 = time.perf_counter()
    reports = scan_for_targets(list(targets.values()), max_n=7, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    total = 1252  # graphs on up to 7 vertices, up to isomorphism
    for name, rep in zip(targets, reports):
        assert rep.graphs_examined == total
        assert not rep.found, f"FATAL: witness found for {name}"
    # classes per level (A000088), from the totals of scans up to n = 1..6
    upto = [scan_for_targets([diamond_graph()], max_n=n)[0].graphs_examined
            for n in range(1, 7)] + [total]
    per_level = [b - a for a, b in zip([0] + upto, upto)]
    assert per_level == [1, 2, 4, 11, 34, 156, 1044]
    assert elapsed < 600
    print(f"\nPASS criterion 5: zero seeds among {total} graph classes (n<=7) "
          f"for all 8 targets, {elapsed:.1f}s at jobs={JOBS}")


def test_criterion_06_house_fixture():
    g = house_seed_graph()
    rep = independence_report(g)
    assert set(rep.i_sets) == {mask_of(vs) for vs in ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4))}
    assert len(rep.i_sets) == 5
    sg = _register(i_graph(g))
    assert is_isomorphic(sg.skeleton, theta_graph(1, 2, 3))
    assert is_isomorphic(sg.skeleton, house_graph())
    print("\nPASS criterion 6: house seed yields exactly the five listed i-sets "
          "and slides into theta(1,2,3)")


def test_criterion_07_iset_count_bound():
    rng = random.Random(20260808)
    found = 0
    attempts = 0
    while found < 1000:
        attempts += 1
        assert attempts < 100000
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        rep = independence_report(g)
        if rep.i != 2:
            continue
        found += 1
        bound = n * (n - 1) // 2 - g.edge_count()
        assert len(rep.i_sets) <= bound, g.edges()
    print(f"\nPASS criterion 7: i-set count bound held on {found} random graphs "
          f"with i=2 ({attempts} sampled)")


def test_criterion_08_structural_invariants():
    assert _INSTANCES, "earlier criteria populate the instance registry"
    for sg in _INSTANCES:
        assert structural_violations(sg) == []
    rng = random.Random(4242)
    products = 0
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(1, 5), rng.random())
        g2 = random_graph(rng, rng.randint(1, 5), rng.random())
        combined = _register(i_graph(disjoint_union(g1, g2)))
        product = cartesian_product(i_graph(g1).skeleton, i_graph(g2).skeleton)
        assert is_isomorphic(combined.skeleton, product)
        products += 1
    print(f"\nPASS criterion 8: slide-graph laws on {len(_INSTANCES)} instances, "
          f"Cartesian product law on {products} disjoint unions")


def test_criterion_09_planar_pipeline():
    t0 = time.perf_counter()
    cube, cube_rot = cube_with_rotation()
    seed = planar_seed(cube, cube_rot)
    sg = _register(i_graph(seed))
    assert sg.node_count() == 8
    assert is_isomorphic(sg.skeleton, cube)
    prism, prism_rot = hex_prism_with_rotation()
    prism_seed = planar_seed(prism, prism_rot)
    psg = _register(i_graph(prism_seed))
    assert contains_induced(psg.skeleton, prism)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    print(f"\nPASS criterion 9: cube i-graph exact (8 i-sets), prism contained "
          f"induced, {elapsed:.2f}s")


def test_criterion_10_deletion_surgery():
    from islide import apply_deletion

    rng = random.Random(1001)
    corpus = []
    for spec in theta_specs_up_to(14):
        jkl = spec.as_tuple()
        if jkl in THETA_EXCEPTIONS or (jkl[0], jkl[1]) == (1, 2):
            continue
        corpus.append(build_theta_seed_complement(*jkl).gbar)
    done = 0
    while done < 100:
        gbar = rng.choice(corpus)
        before = set(independence_report(gbar.complement()).i_sets)
        if len(before) < 2:
            continue
        target = rng.choice(sorted(before))
        after_gbar = apply_deletion(gbar, target)
        after = set(independence_report(after_gbar.complement()).i_sets)
        assert before - after == {target}
        assert after == before - {target}
        done += 1
    print(f"\nPASS criterion 10: deletion surgery removed exactly the chosen "
          f"i-set in {done} random trials across the seed corpus")
