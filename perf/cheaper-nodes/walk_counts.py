"""Count the refinement nodes (``iso._refine`` calls) and labellings
(``iso._canonical`` calls) of the class walk to n = 6 and n = 8, and print
the SHA-256 of its levels, for the checkout named on the command line:

    python3 perf/cheaper-nodes/walk_counts.py CHECKOUT
"""
import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import islide.iso as iso
import islide.search as search

counts = {"_refine": 0, "_canonical": 0}
for name in counts:
    def counted(*args, real=getattr(iso, name), name=name):
        counts[name] += 1
        return real(*args)
    setattr(iso, name, counted)
search._canonical = iso._canonical
for max_n in (6, 8):
    for name in counts:
        counts[name] = 0
    t = time.perf_counter()
    levels = list(search._class_levels(max_n, False))
    took = time.perf_counter() - t
    print(f"n <= {max_n}: {counts['_canonical']} labellings, {counts['_refine']} nodes, "
          f"{took:.2f} s, levels sha256 {hashlib.sha256(repr(levels).encode()).hexdigest()[:16]}")
