"""Time the untraced operations of the three workloads of two checkouts in
one process, interleaved pass by pass, so that drift in the host's speed
hits both alike:

    python3 perf/match-by-iso/twin.py PARENT CHANGE [ROUNDS]

PARENT's package is copied to a temporary directory as ``islide_parent``.
Each round runs every operation of the workload's seed-1 input once per side,
the side that goes first alternating by round, with the collector off.
Prints, per workload, the quartiles of the per-round time ratio change /
parent.
"""
import gc
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

parent, change = (Path(p).resolve() for p in sys.argv[1:3])
rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 20
tmp = Path(tempfile.mkdtemp())
shutil.copytree(parent / "src" / "islide", tmp / "islide_parent")
sys.path[:0] = [str(change / "src"), str(tmp), str(change / "bench")]
import islide  # noqa: E402
import islide_parent  # noqa: E402
import workloads  # noqa: E402

gc.disable()
for name in ("corroborate", "catalog", "igraphs"):
    sides = [workloads.BUILDERS[name](lib, random.Random(1), workloads.FULL)
             for lib in (islide_parent, islide)]
    ratios = []
    for r in range(rounds):
        took = [0.0, 0.0]
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            t = time.perf_counter()
            for op in sides[i]:
                op.run()
            took[i] = time.perf_counter() - t
        ratios.append(took[1] / took[0])
        gc.collect()
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"{name}\tchange/parent median {med:.3f}\tquartiles {q1:.3f} {q3:.3f}\trounds {rounds}")
shutil.rmtree(tmp)
