"""Slide graphs built per scan, and the level digest, for the checkout named
on the command line:

    python3 perf/count-gate/counts.py CHECKOUT

Counts the classes each scan tests (``search._matches`` calls) and the slide
graphs it builds for them (``search.build_slide_graph`` calls where the scan
has that name, else ``search.i_graph`` calls), for the corroborate scan (the
benchmark's ten targets, n <= 6) and for the scan of the seven theta
exceptions to n = 8 that ``verify_table(26, corroborate_max_n=8)`` runs,
and prints the sha256 of the levels a walk to n = 8 yields.
"""
import hashlib
import sys

sys.path.insert(0, sys.argv[1] + "/src")
import islide  # noqa: E402
import islide.search as search  # noqa: E402

counts = {"classes": 0, "slide graphs": 0}


def counted(name, key):
    real = getattr(search, name)

    def wrapper(*args):
        counts[key] += 1
        return real(*args)
    setattr(search, name, wrapper)


counted("_matches", "classes")
counted("build_slide_graph" if hasattr(search, "build_slide_graph") else "i_graph",
        "slide graphs")
exceptions = [islide.theta_graph(*spec) for spec in sorted(islide.THETA_EXCEPTIONS)]
corroborate = exceptions + [islide.obstruction_t_graph(), islide.house_graph(),
                            islide.cycle_graph(5)]
for name, targets, max_n in (("corroborate scan, n <= 6", corroborate, 6),
                             ("exceptions scan, n <= 8", exceptions, 8)):
    counts.update(dict.fromkeys(counts, 0))
    found = sum(rep.found for rep in islide.scan_for_targets(targets, max_n))
    print(f"{name}: {counts['classes']} classes, {counts['slide graphs']} slide graphs, "
          f"{found} targets found")
levels = list(search._class_levels(8, False))
print(f"levels to n = 8: sha256 {hashlib.sha256(repr(levels).encode()).hexdigest()[:16]}")
