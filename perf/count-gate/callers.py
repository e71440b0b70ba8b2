"""One-shot runs of two cold scan callers, each in a fresh process, for a
parent and a change checkout, in alternating pairs:

    python3 perf/count-gate/callers.py PARENT CHANGE [PAIRS] > callers.tsv
    python3 perf/count-gate/callers.py --summary callers.tsv

The callers are ``islide search --theta 2 2 4 --max-n 8 --expect-none``
(search-none) and ``verify_table(26, corroborate_max_n=8)`` (verify_table).
Each row is one run: the caller, the pair, the side, the process's wall
time (interpreter start, import and call), the call's own time, the child's
peak RSS, the classes the scan tested and the slide graphs it built for
them (``search.build_slide_graph`` calls where the scan has that name,
else ``search.i_graph`` calls).  Odd pairs run the parent first, even pairs
the change first.  ``--summary`` prints, per caller and timed column, each
side's median with quartiles, the change/parent ratio of medians, the
parent's interquartile range as a share of its median and the pairs the
change won.
"""
import csv
import json
import os
import statistics
import subprocess
import sys
import time

CALLERS = {
    "search-none": ("cli", ["search", "--theta", "2", "2", "4", "--max-n", "8", "--expect-none"]),
    "verify_table": ("table", None),
}


def child(checkout: str, caller: str) -> None:
    sys.path.insert(0, os.path.join(checkout, "src"))
    import contextlib
    import io

    import islide.search as search

    counts = {"classes": 0, "slide_graphs": 0}

    def counted(name, key):
        real = getattr(search, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        setattr(search, name, wrapper)

    counted("_matches", "classes")
    counted("build_slide_graph" if hasattr(search, "build_slide_graph") else "i_graph",
            "slide_graphs")
    kind, argv = CALLERS[caller]
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if kind == "cli":
            from islide.cli import main
            code = main(argv)
        else:
            from islide.seeds import verify_table
            code = 0 if verify_table(26, corroborate_max_n=8).passed else 1
    took = time.perf_counter() - t
    assert code == 0, (caller, code)
    print(json.dumps({"call_s": took, **counts}))


def run(checkout: str, caller: str) -> dict:
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--child", checkout, caller],
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert status == 0, (checkout, caller, status)
    return {"process_s": time.perf_counter() - t, "peak_rss_mb": usage.ru_maxrss / 1024,
            **json.loads(out)}


def main(parent: str, change: str, pairs: int) -> None:
    cols = ["caller", "pair", "side", "process_s", "call_s", "peak_rss_mb", "classes",
            "slide_graphs"]
    print("\t".join(cols))
    for caller in CALLERS:
        for pair in range(1, pairs + 1):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if pair % 2 else sides[::-1]:
                row = {"caller": caller, "pair": pair, "side": side, **run(checkout, caller)}
                print("\t".join(str(row[c]) for c in cols), flush=True)


def summary(path: str) -> None:
    with open(path) as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    print("| caller | metric | parent | change | ratio | parent IQR / median | wins |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for caller in CALLERS:
        for k in ("process_s", "call_s", "peak_rss_mb"):
            p, c = ({r["pair"]: float(r[k]) for r in rows
                     if r["caller"] == caller and r["side"] == side}
                    for side in ("parent", "change"))
            pq, cq = (statistics.quantiles(x.values(), n=4, method="inclusive") for x in (p, c))
            wins = sum(c[i] < p[i] for i in p)
            print(f"| {caller} | {k} | {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"| {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] | {cq[1] / pq[1]:.3f} "
                  f"| {(pq[2] - pq[0]) / pq[1]:.3f} | {wins}/{len(p)} |")


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "--summary":
        summary(sys.argv[2])
    else:
        main(sys.argv[1], sys.argv[2], int(sys.argv[3]) if len(sys.argv) > 3 else 10)
