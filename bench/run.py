"""islide benchmark: three workloads, end-to-end metrics, and a traced
replay that splits the time by library module.

    python3 bench/run.py --workload corroborate|catalog|igraphs|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  Each workload is a
closed loop in one process: one call at a time, no workers, no threads.

With ``--trace 0`` it repeats passes over the workload's operations until
the next pass would end after ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json), and sets the workload up again after every pass
(``setup_s`` is the median, over at least 5).  ``wall_s`` is the median
pass; ``op_p50_ms`` and ``op_p95_ms`` are percentiles, over the
operations, of each operation's median latency.  It prints each metric with its
unit, then the machine and run facts, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` it
replays the workload, each operation once untraced and once traced, times
the probes, and reports the per-layer metrics instead.
Reports and span files go to ``bench/out/``.  ``--workload all`` runs the
three workloads one after another, each in its own process.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from replay import LAYER_UNITS, PROBES, NullTracer, Tracer, layer_metrics
from workloads import BUILDERS, FULL, layer_probe_op, probe_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))
WORKLOADS = ("corroborate", "catalog", "igraphs")
DEFAULT_SEED = 1
MIN_SETUPS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import islide afresh from the checkout's src/ (dropping any copy
    already imported), so that every setup pays for the import."""
    for name in [m for m in sys.modules if m == "islide" or m.startswith("islide.")]:
        del sys.modules[name]
    s = importlib.import_module("islide")
    if Path(s.__file__).resolve().parent != SRC / "islide":
        raise ImportError(f"islide imported from {s.__file__}, not from {SRC}")
    return s


def setup(workload: str, seed: int, size: dict):
    """Import the library and build the workload's inputs from the seed."""
    s = import_library()
    return s, BUILDERS[workload](s, random.Random(seed), size)


def check(op, raw) -> bool:
    try:
        got = op.verdict(raw)
    except Exception:
        traceback.print_exc()
        return False
    if got != op.expect:
        print(f"WRONG {op.kind}: got {got!r}, expected {op.expect!r}", file=sys.stderr)
        return False
    return True


def run_op(op, call) -> tuple[float, bool]:
    """Time one operation; return (seconds, correct).  An exception counts
    as a wrong output and the run goes on."""
    t0 = time.perf_counter()
    try:
        raw = call()
    except Exception:
        dt = time.perf_counter() - t0
        traceback.print_exc()
        return dt, False
    dt = time.perf_counter() - t0
    return dt, check(op, raw)


def measure(ops, seconds: float, between=lambda: None) -> dict:
    """Passes over ops until the next pass would end after ``seconds``;
    ``between`` runs after each pass but the last.  ``times[i]`` holds the
    latencies of ``ops[i]``."""
    times: list[list[float]] = [[] for _ in ops]
    walls: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        wall = 0.0
        for op, samples in zip(ops, times):
            dt, ok = run_op(op, op.run)
            wall += dt
            samples.append(dt)
            failed += not ok
        walls.append(wall)
        if time.perf_counter() + wall > deadline:
            break
        between()
    return {"times": times, "walls": walls, "failed": failed}


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20)[18]


def run_untraced(workload: str, seed: int, seconds: float, size: dict) -> dict:
    # One set-up before the first pass and one after every pass, so that
    # set-up samples span the run as the passes do and the host's slow
    # speed drift does not land on set-up alone.  Passes reuse the first
    # set-up's ops; later set-ups are timed only.  Latency percentiles are
    # taken over the operations' median latencies: pooled samples put the
    # host's slow spells into the tail (on corroborate, one scan per pass,
    # p95 of about 45 scans spread 0.34 over ten runs).
    setups = []

    def timed_setup():
        t0 = time.perf_counter()
        ops = setup(workload, seed, size)[1]
        setups.append(time.perf_counter() - t0)
        return ops

    ops = timed_setup()
    m = measure(ops, seconds, between=timed_setup)
    while len(setups) < MIN_SETUPS:
        timed_setup()
    per_op = [statistics.median(t) for t in m["times"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(m["walls"]),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p95_ms": p95(per_op) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "attempted": sum(map(len, m["times"])),
        "failed": m["failed"],
        "metrics": metrics,
        "units": E2E_UNITS,
        "detail": {"passes": len(m["walls"]), "ops_per_pass": len(ops),
                   "setup_samples_s": setups, "pass_walls_s": m["walls"]},
    }


def replay(ops, tracer) -> tuple[int, float]:
    """The workload's replay, each op once untraced and then once traced,
    so that drift in the host's speed hits both sides alike.  Returns
    (failed ops, untraced seconds)."""
    null = NullTracer()
    failed = 0
    untraced = 0.0
    for idx, op in enumerate(ops):
        dt, ok = run_op(op, lambda: op.replay(null))
        untraced += dt
        failed += not ok
        tracer.op = idx

        def traced():
            with tracer.span("bench.op"):
                return op.replay(tracer)

        _, ok = run_op(op, traced)
        failed += not ok
    return failed, untraced


def run_traced(workload: str, seed: int, size: dict, spans_path: Path | None,
               facts: dict) -> dict:
    s, ops = setup(workload, seed, size)
    ops.append(layer_probe_op(s))
    tracer = Tracer()
    failed, untraced = replay(ops, tracer)
    probe_ms = dict.fromkeys(PROBES, 0.0)
    prepare = probe_calls(s)
    for name in size["probes"]:
        call = prepare[name]()
        t0 = time.perf_counter()
        call()
        probe_ms[name] = (time.perf_counter() - t0) * 1e3
    metrics = layer_metrics(tracer, untraced, probe_ms)
    if spans_path is not None:
        tracer.write(spans_path, facts)
    return {
        "attempted": 2 * len(ops),
        "failed": failed,
        "metrics": metrics,
        "units": LAYER_UNITS,
        "detail": {"spans": len(tracer.spans), "untraced_replay_s": untraced},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_result(result: dict, facts: dict) -> None:
    metrics, units = result["metrics"], result["units"]
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':32s} {ratio:16.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    failed = attempted = 0
    merged = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        failed += res["failed"]
        attempted += res["attempted"]
        merged.update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "islide" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'islide'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    facts = stamp(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(args.workload, args.seed, FULL, OUT / f"{label}.spans.json.gz", facts)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, FULL)
    report = {"facts": facts, **result}
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print_result(result, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
