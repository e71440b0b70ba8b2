"""Time seed building and the catalog's isomorphism tests of two checkouts
in one process, interleaved call by call with the sides alternating which
goes first, so that drift in the host's speed hits both alike:

    python3 perf/degree-root/twin.py PARENT CHANGE

PARENT's package is copied to a temporary directory as ``islide_parent``.
First prints, per side, the ``iso._refine`` calls (tree nodes) of one
``verify_table(26, corroborate_max_n=0)``.  Then, with the collector off,
prints per job each side's median time and the median and quartiles of the
per-round ratio change / parent.  Jobs: building the 543 realizable seeds
of order <= 26; the ``is_isomorphic`` calls ``check_seed`` makes on them
(each i-graph skeleton against its theta graph, and each alpha-graph
skeleton of a seed that is not well covered), on skeletons built once; and
the whole catalog pass, ``verify_table(26, corroborate_max_n=0)``.
"""
import gc
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

parent, change = (Path(p).resolve() for p in sys.argv[1:3])
tmp = Path(tempfile.mkdtemp())
shutil.copytree(parent / "src" / "islide", tmp / "islide_parent")
sys.path[:0] = [str(change / "src"), str(tmp)]
import islide  # noqa: E402
import islide.iso  # noqa: E402
import islide.seeds  # noqa: E402
import islide_parent  # noqa: E402
import islide_parent.iso  # noqa: E402
import islide_parent.seeds  # noqa: E402


def refine_calls(s, iso):
    real = iso._refine
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    iso._refine = counted
    try:
        assert s.seeds.verify_table(26, corroborate_max_n=0).passed
    finally:
        iso._refine = real
    return calls[0]


def jobs(s):
    specs = [spec.as_tuple() for spec in s.theta_specs_up_to(26)
             if spec.as_tuple() not in s.THETA_EXCEPTIONS]
    assert len(specs) == 543
    pairs = []
    for jkl in specs:
        g = s.build_theta_seed_complement(*jkl).gbar.complement()
        rep = s.independence_report(g)
        target = s.theta_graph(*jkl)
        pairs.append((s.build_slide_graph(g, list(rep.i_sets)).skeleton, target))
        if not rep.well_covered:
            pairs.append((s.build_slide_graph(g, list(rep.alpha_sets)).skeleton, target))
    return {
        "build the 543 seeds": (100, lambda: [s.build_theta_seed_complement(*jkl) for jkl in specs]),
        f"is_isomorphic, {len(pairs)} catalog calls": (
            50, lambda: [s.is_isomorphic(a, b) for a, b in pairs]),
        "verify_table(26, corroborate_max_n=0)": (20, lambda: s.seeds.verify_table(26, 0)),
    }


print(f"_refine calls per catalog pass\tparent {refine_calls(islide_parent, islide_parent.iso)}"
      f"\tchange {refine_calls(islide, islide.iso)}", flush=True)
sides = [jobs(islide_parent), jobs(islide)]
gc.disable()
for name, (rounds, _) in sides[0].items():
    times = ([], [])
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            t = time.perf_counter()
            sides[side][name][1]()
            times[side].append(time.perf_counter() - t)
    ratios = [c / p for p, c in zip(*times)]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1 for r in ratios)
    print(f"{name}\trounds {rounds}\tparent {statistics.median(times[0]) * 1e3:.2f} ms"
          f"\tchange {statistics.median(times[1]) * 1e3:.2f} ms"
          f"\tchange/parent median {med:.3f}\tquartiles {q1:.3f} {q3:.3f}"
          f"\tchange faster in {wins}/{rounds}", flush=True)
shutil.rmtree(tmp)
