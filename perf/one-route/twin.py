"""Time the catalog's calls of two checkouts in one process, interleaved
pass by pass with the sides alternating which goes first, so that drift in
the host's speed hits both alike:

    python3 perf/one-route/twin.py PARENT CHANGE

PARENT's package is copied to a temporary directory as ``islide_parent``.
With the collector off, prints per job each side's median time and the
median and quartiles of the per-round ratio change / parent.  Jobs: one
pass of the benchmark's catalog calls (``build_theta_seed_complement`` on
the 7 exceptions, ``verify_theta_seed`` on the 543 realizable specs of
order <= 26), ``build_theta_seed_complement`` alone on all 550 specs, and
``verify_table(26, corroborate_max_n=0)``.
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
import islide.seeds  # noqa: E402
import islide_parent  # noqa: E402
import islide_parent.seeds  # noqa: E402


def jobs(s):
    specs = [spec.as_tuple() for spec in s.theta_specs_up_to(26)]
    exceptions = {jkl for jkl in specs if jkl in s.THETA_EXCEPTIONS}
    assert len(specs) == 550 and len(exceptions) == 7

    def catalog():
        for jkl in specs:
            if jkl in exceptions:
                assert s.build_theta_seed_complement(*jkl).verdict == "not_realizable"
            else:
                assert s.verify_theta_seed(*jkl).passed

    return {
        "catalog pass (550 specs)": (60, catalog),
        "build_theta_seed_complement x 550": (100, lambda: [
            s.build_theta_seed_complement(*jkl) for jkl in specs]),
        "verify_table(26, corroborate_max_n=0)": (30, lambda: s.seeds.verify_table(26, 0)),
    }


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
