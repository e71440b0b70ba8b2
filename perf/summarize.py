"""Summarise runs files of alternating parent/change benchmark pairs as one
markdown table:

    python3 perf/summarize.py runs-*.tsv

A runs file is tab-separated with a header; its columns are read by name.
It needs ``pair``, ``side`` (parent or change), ``failed`` and the five
end-to-end metric columns, and may have ``workload`` and ``seed``.  A file
with no ``workload`` column takes the workload from its name,
``runs-WORKLOAD.tsv`` or ``runs-WORKLOAD-*.tsv``.  ``perf/pairs.sh`` writes such files.

One row per file, workload, seed and metric: each side's median, the
change/parent ratio of medians, the parent's interquartile range, the pairs
the change won (lower reads better), whether the medians differ by more
than the parent's interquartile range (``resolved``, the margin the
benchmark's acceptance check asks of a claimed gain) and the failed
operations of parent/change.  Quartiles come from
``statistics.quantiles(values, n=4)``, the call ``bench/spread.py`` makes.
"""
import csv
import statistics
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")


def num(x):
    """Four decimals from 0.1 up, four significant digits below."""
    return f"{x:.4f}" if abs(x) >= 0.1 else f"{x:.4g}"


def groups(path):
    """Yield ``(workload, seed, rows)`` for each workload and seed of a runs file."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    fallback = Path(path).stem.removeprefix("runs-").split("-")[0]
    keys = {}
    for r in rows:
        keys.setdefault((r.get("workload", fallback), r.get("seed", "")), []).append(r)
    for (workload, seed), group in sorted(keys.items()):
        yield workload, seed, group


def summary(path, workload, seed, rows):
    """One markdown row per end-to-end metric."""
    failed = "/".join(str(sum(int(r["failed"]) for r in rows if r["side"] == s))
                      for s in ("parent", "change"))
    for k in METRICS:
        p, c = ({r["pair"]: float(r[k]) for r in rows if r["side"] == s}
                for s in ("parent", "change"))
        if not p or not c:
            sys.exit(f"{path}: {workload} needs parent and change runs")
        pmed, cmed = statistics.median(p.values()), statistics.median(c.values())
        iqr = resolved = "-"   # one parent run has no quartiles
        if len(p) > 1:
            q1, _, q3 = statistics.quantiles(p.values(), n=4)
            iqr, resolved = num(q3 - q1), "yes" if abs(cmed - pmed) > q3 - q1 else "no"
        wins = sum(c[i] < p[i] for i in p if i in c)
        yield (f"| {Path(path).name} | {workload} | {seed} | {k} | {num(pmed)} | {num(cmed)} "
               f"| {cmed / pmed:.3f} | {iqr} | {wins}/{len(p.keys() & c.keys())} "
               f"| {resolved} | {failed} |")


def main(paths):
    print("| runs | workload | seed | metric | parent | change | ratio | parent IQR "
          "| wins | resolved | failed |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for path in paths:
        for workload, seed, rows in groups(path):
            for line in summary(path, workload, seed, rows):
                print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
