"""Run-to-run spread of the benchmark, as the acceptance check computes it.

    python3 bench/spread.py --workload igraphs --seeds 1-10 [--trace 0]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles from ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, next to the bound
BENCHMARK.json fixes.  The raw results go to ``bench/out/spread-*.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    out = BENCH / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
