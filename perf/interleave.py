"""In-process A/B timing of two checkouts of islide, interleaved round by round.

An experiment's ``twin.py`` loads both sides and hands its jobs to ``run``:

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))   # perf/
    import interleave
    parent, change = interleave.load(PARENT_CHECKOUT, CHANGE_CHECKOUT)
    interleave.run(jobs(parent), jobs(change))

``load`` copies the parent's ``src/islide`` into a temporary directory as
the package ``islide_parent`` and imports it next to the change's
``islide``, so both sides run in one process and drift in the host's speed
hits both alike.  ``jobs(lib)`` maps each job name to ``(rounds, call)``,
the same names on both sides.

``run`` turns the cyclic garbage collector off and calls each job's two
sides once per round, the side that goes first alternating by round, with
a ``gc.collect()`` between rounds; it turns the collector back on when it is
done.  It prints one tab-separated line per job: each side's median time,
the median and quartiles of the per-round ratio change / parent (from
``statistics.quantiles(ratios, n=4)``, as ``bench/spread.py`` takes them)
and the rounds the change won.
"""
import atexit
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load(parent, change):
    """Import ``change``'s islide and a copy of ``parent``'s as islide_parent.

    Returns ``(islide_parent, islide)``.  Exits if islide was already
    imported from somewhere else, which would time the wrong code."""
    parent, change = Path(parent).resolve(), Path(change).resolve()
    tmp = Path(tempfile.mkdtemp(prefix="interleave-"))
    atexit.register(shutil.rmtree, tmp, True)
    shutil.copytree(parent / "src" / "islide", tmp / "islide_parent",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path[:0] = [str(change / "src"), str(tmp)]
    lib = importlib.import_module("islide")
    if Path(lib.__file__).resolve().parent != change / "src" / "islide":
        sys.exit(f"islide was imported from {lib.__file__}, not from {change}")
    return importlib.import_module("islide_parent"), lib


def run(parent_jobs, change_jobs):
    """Time every job ``name: (rounds, call)`` of both sides; rounds >= 2."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, (rounds, parent_call) in parent_jobs.items():
            calls = (parent_call, change_jobs[name][1])
            times = ([], [])
            for r in range(rounds):
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    t = time.perf_counter()
                    calls[side]()
                    times[side].append(time.perf_counter() - t)
                gc.collect()
            ratios = [c / p for p, c in zip(*times)]
            q1, med, q3 = statistics.quantiles(ratios, n=4)
            wins = sum(x < 1 for x in ratios)
            print(f"{name}\trounds {rounds}\tparent {statistics.median(times[0]) * 1e3:.2f} ms"
                  f"\tchange {statistics.median(times[1]) * 1e3:.2f} ms"
                  f"\tchange/parent median {med:.3f}\tquartiles {q1:.3f} {q3:.3f}"
                  f"\tchange faster in {wins}/{rounds}", flush=True)
    finally:
        if enabled:
            gc.enable()
