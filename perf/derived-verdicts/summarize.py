"""Summarise runs files written by pairs.sh as one markdown table:

    python3 perf/derived-verdicts/summarize.py runs-*.tsv

Per workload and end-to-end metric: the median with quartiles of each side,
the change/parent ratio of medians, the parent's interquartile range as a
share of its median, the pairs the change won (lower reads better) and the
failed operations of parent/change.
"""
import csv
import statistics
import sys

METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


print("| workload | metric | parent | change | ratio | parent IQR / median | wins | failed |")
print("| --- | --- | --- | --- | --- | --- | --- | --- |")
for path in sys.argv[1:]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    workload = rows[0]["workload"]
    failed = "/".join(str(sum(int(r["failed"]) for r in rows if r["side"] == s))
                      for s in ("parent", "change"))
    for k in METRICS:
        p, c = ({int(r["pair"]): float(r[k]) for r in rows if r["side"] == s}
                for s in ("parent", "change"))
        pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
        wins = sum(c[i] < p[i] for i in p)
        print(f"| {workload} | {k} | {fmt(pq)} | {fmt(cq)} | {cq[1] / pq[1]:.3f} "
              f"| {(pq[2] - pq[0]) / pq[1]:.3f} | {wins}/{len(p)} | {failed} |")
