"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks, for every workload, that the untraced and the traced run report
exactly the metric names BENCHMARK.json declares, none of them 0 (bar the
probes these sizes skip), and no failures, that the
layer self times plus the benchmark's own time add up to the traced wall
time, and that a deliberately wrong expected verdict drives fail_ratio
above 0 in both runs.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from replay import PROBES, Tracer  # noqa: E402
from workloads import TINY, THETA_EXCEPTIONS, build_catalog  # noqa: E402

SELF_TIME_METRICS = (
    "search.enumerate_s", "independence.s", "reconfig.s", "iso.s", "seeds.build_s",
    "graphs.s", "linegraphs.s", "planar.s", "bench.self_s",
)


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "workloads differ from BENCHMARK.json")
    mapped = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped_names = [n for layer in mapped.values() for n in layer["metrics"]]
    expect(sorted(mapped_names) == sorted(layers),
           "layers.json does not map exactly the declared per-layer metrics")

    for workload in run.WORKLOADS:
        res = run.run_untraced(workload, 7, 0.0, TINY)
        expect({k: res["units"].get(k) for k in res["metrics"]} == e2e,
               f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        expect(res["failed"] == 0, f"{workload}: {res['failed']} failed untraced")
        expect(all(v > 0 for v in res["metrics"].values()),
               f"{workload}: an end-to-end metric is 0")
        res = run.run_traced(workload, 7, TINY, None, {})
        m = res["metrics"]
        expect({k: res["units"].get(k) for k in m} == layers,
               f"{workload}: per-layer metrics differ from BENCHMARK.json")
        expect(res["failed"] == 0, f"{workload}: {res['failed']} failed traced")
        skipped = set(PROBES) - set(TINY["probes"])
        zero = sorted(k for k, v in m.items() if v <= 0 and k not in skipped)
        expect(not zero, f"{workload}: per-layer metrics are 0: {zero}")
        accounted = sum(m[k] for k in SELF_TIME_METRICS)
        expect(abs(accounted - m["trace.wall_s"]) <= 1e-6 * m["trace.wall_s"] + 1e-9,
               f"{workload}: self times {accounted} != traced wall {m['trace.wall_s']}")
        print(f"ok {workload}: {len(m)} per-layer metrics, self times cover "
              f"{accounted / m['trace.wall_s']:.9f} of the traced wall")

    # theta(2,2,5) is realizable; claiming otherwise must fail its op
    wrong = THETA_EXCEPTIONS | {(2, 2, 5)}
    s = run.import_library()
    ops = build_catalog(s, random.Random(7), TINY, exceptions=wrong)
    measured = run.measure(ops, 0.0)
    ratio = measured["failed"] / sum(map(len, measured["times"]))
    failed, _ = run.replay(ops, Tracer())
    expect(measured["failed"] == 1 and failed == 2,
           f"wrong verdict: {measured['failed']} failed, {failed} in the replay, not 1 and 2")
    print(f"wrong expected verdict: fail_ratio {ratio:.4f}")

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
