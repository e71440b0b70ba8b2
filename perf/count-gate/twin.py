"""Time the class scan and ``i_graph`` of two checkouts in one process,
interleaved call by call with the sides alternating which goes first, so
that drift in the host's speed hits both alike:

    python3 perf/count-gate/twin.py PARENT CHANGE

PARENT's package is copied to a temporary directory as ``islide_parent``.
Each side's level store is filled to n = 8 first, so the scans time the
class tests alone.  Prints, per job, each side's median time and the median
and quartiles of the per-round ratio change / parent, with the collector
off.  Jobs: the corroborate scan (its ten targets, n <= 6), the scan of the
seven theta exceptions to n = 8 (what ``verify_table(26,
corroborate_max_n=8)`` runs after its walk), and ``i_graph`` of every class
on <= 6 vertices.
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
import islide.search  # noqa: E402
import islide_parent  # noqa: E402
import islide_parent.search  # noqa: E402


def jobs(s, search):
    exceptions = [s.theta_graph(*spec) for spec in sorted(s.THETA_EXCEPTIONS)]
    corroborate = exceptions + [s.obstruction_t_graph(), s.house_graph(), s.cycle_graph(5)]
    list(search._class_levels(8, False))
    classes = [s.Graph._from_mask(n, m) for n, level in search._class_levels(6, False)
               for m in level]
    return {
        "corroborate scan, n <= 6": (200, lambda: search.scan_for_targets(corroborate, 6)),
        "exceptions scan, n <= 8": (10, lambda: search.scan_for_targets(exceptions, 8)),
        "i_graph, 208 classes": (200, lambda: [s.i_graph(g) for g in classes]),
    }


sides = [jobs(islide_parent, islide_parent.search), jobs(islide, islide.search)]
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
    print(f"{name}\trounds {rounds}\tparent {statistics.median(times[0]) * 1e3:.2f} ms"
          f"\tchange {statistics.median(times[1]) * 1e3:.2f} ms"
          f"\tchange/parent median {med:.3f}\tquartiles {q1:.3f} {q3:.3f}", flush=True)
shutil.rmtree(tmp)
