"""Time the class scan and ``i_graph`` of two checkouts in one process with
``perf/interleave.py``:

    python3 perf/count-gate/twin.py PARENT CHANGE

Each side's level store is filled to n = 8 first, so the scans time the
class tests alone.  Jobs: the corroborate scan (its ten targets, n <= 6),
the scan of the seven theta exceptions to n = 8 (what ``verify_table(26,
corroborate_max_n=8)`` runs after its walk), and ``i_graph`` of every class
on <= 6 vertices.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import interleave  # noqa: E402


def jobs(s):
    search = s.search
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


parent, change = interleave.load(*sys.argv[1:3])
interleave.run(jobs(parent), jobs(change))
