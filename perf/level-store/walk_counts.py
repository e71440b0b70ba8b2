"""Labellings (``iso._canonical`` calls) and level digest of the class walk
to n = 8, cold and then warm, and labellings per corroborate scan (the ten
targets of the benchmark, n <= 6), first and second in one process, for the
checkout named on the command line, and the memory the filled store holds
(tracemalloc, after a cold walk to 8):

    python3 perf/level-store/walk_counts.py CHECKOUT
"""
import gc
import hashlib
import sys
import time
import tracemalloc

sys.path.insert(0, sys.argv[1] + "/src")
import islide
import islide.iso as iso
import islide.search as search

calls = [0]
real = iso._canonical


def counted(g):
    calls[0] += 1
    return real(g)


iso._canonical = search._canonical = counted
targets = [islide.diamond_graph()] + [islide.theta_graph(*spec) for spec in
           ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 3, 3))] + [
    islide.obstruction_t_graph(), islide.house_graph(), islide.cycle_graph(5)]
for name in ("first scan", "second scan"):
    calls[0] = 0
    t = time.perf_counter()
    islide.scan_for_targets(targets, 6)
    print(f"{name}, n <= 6: {calls[0]} labellings, {time.perf_counter() - t:.4f} s")
for name in ("cold walk", "warm walk"):
    if name == "cold walk" and hasattr(search, "_LEVELS"):
        search._LEVELS.clear()
    calls[0] = 0
    t = time.perf_counter()
    levels = list(search._class_levels(8, False))
    took = time.perf_counter() - t
    print(f"{name}, n <= 8: {calls[0]} labellings, {took:.2f} s, "
          f"levels sha256 {hashlib.sha256(repr(levels).encode()).hexdigest()[:16]}")
if hasattr(search, "_LEVELS"):
    search._LEVELS.clear()
    tracemalloc.start()
    list(search._class_levels(8, False))
    gc.collect()
    print(f"store through n = 8: {tracemalloc.get_traced_memory()[0] / 1e6:.2f} MB, "
          f"{sum(map(len, search._LEVELS.values()))} masks")
