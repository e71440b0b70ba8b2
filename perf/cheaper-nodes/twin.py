"""Time two checkouts in one process, alternating which goes first each
round, with the cyclic collector off:

    python3 perf/cheaper-nodes/twin.py PARENT_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

Three jobs: the corroborate scan (the ten targets of criterion 5 at
max_n = 6), the class walk to n = 7, and verify_table(26) without a scan.
Prints each side's median and the change/parent ratio.
"""
import gc
import importlib
import statistics
import sys
import time


def load(checkout):
    for name in [k for k in sys.modules if k == "islide" or k.startswith("islide.")]:
        del sys.modules[name]
    sys.path.insert(0, checkout + "/src")
    mods = {name: importlib.import_module(name) for name in ("islide", "islide.search", "islide.seeds")}
    sys.path.pop(0)
    return mods


def jobs(m):
    s, search, seeds = m["islide"], m["islide.search"], m["islide.seeds"]
    targets = ([s.theta_graph(*spec) for spec in sorted(seeds.THETA_EXCEPTIONS)]
               + [s.obstruction_t_graph(), s.house_graph(), s.cycle_graph(5)])
    return {
        "corroborate": lambda: search.scan_for_targets(targets, 6),
        "walk7": lambda: list(search._class_levels(7, False)),
        "catalog": lambda: seeds.verify_table(26, corroborate_max_n=0),
    }


sides = {"parent": jobs(load(sys.argv[1])), "change": jobs(load(sys.argv[2]))}
rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 10
gc.disable()
for name in sides["parent"]:
    times = {"parent": [], "change": []}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            t0 = time.perf_counter()
            sides[side][name]()
            times[side].append(time.perf_counter() - t0)
    p, c = statistics.median(times["parent"]), statistics.median(times["change"])
    print(f"{name}: parent {p * 1e3:.1f} ms, change {c * 1e3:.1f} ms, ratio {c / p:.3f}", flush=True)
