"""Time two checkouts in one process with ``perf/interleave.py``:

    python3 perf/cheaper-nodes/twin.py PARENT_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

Three jobs, ROUNDS rounds each (default 10): the corroborate scan (the ten
targets of criterion 5 at max_n = 6), the class walk to n = 7 from an empty
level store, and verify_table(26) without a scan.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import interleave  # noqa: E402


def jobs(s, rounds):
    search, seeds = s.search, s.seeds
    targets = ([s.theta_graph(*spec) for spec in sorted(seeds.THETA_EXCEPTIONS)]
               + [s.obstruction_t_graph(), s.house_graph(), s.cycle_graph(5)])

    def walk7():
        getattr(search, "_LEVELS", {}).clear()   # the level store keeps every built level
        list(search._class_levels(7, False))

    return {
        "corroborate": (rounds, lambda: search.scan_for_targets(targets, 6)),
        "walk7": (rounds, walk7),
        "catalog": (rounds, lambda: seeds.verify_table(26, corroborate_max_n=0)),
    }


rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 10
parent, change = interleave.load(*sys.argv[1:3])
interleave.run(jobs(parent, rounds), jobs(change, rounds))
