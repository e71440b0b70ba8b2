"""Print every entry and scan report of verify_table(26, corroborate_max_n=8,
jobs=2) for the library source in the checkout named on the command line:

    python3 perf/check-int/table.py PARENT > a.txt
    python3 perf/check-int/table.py CHANGE > b.txt
    diff a.txt b.txt
"""
import collections
import sys

sys.path.insert(0, f"{sys.argv[1]}/src")
from islide import to_graph6, verify_table  # noqa: E402

report = verify_table(26, corroborate_max_n=8, jobs=2)
for e in report.entries:
    print(e.spec, e.outcome, e.construction_id, e.detail)
for rep in report.corroboration:
    print(to_graph6(rep.target), rep.max_n, rep.graphs_examined, [to_graph6(w) for w in rep.witnesses])
print(len(report.entries), dict(collections.Counter(e.outcome for e in report.entries)))
print("failures", report.failures, "passed", report.passed)
