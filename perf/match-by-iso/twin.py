"""Time the untraced operations of the three workloads of two checkouts in
one process with ``perf/interleave.py``:

    python3 perf/match-by-iso/twin.py PARENT CHANGE [ROUNDS]

One job per workload, ROUNDS rounds each (default 20): a round runs every
operation of the workload's seed-1 input once per side, as built by the
change's ``bench/workloads.py``.
"""
import random
import sys
from functools import partial
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]), str(Path(sys.argv[2]).resolve() / "bench")]
import interleave  # noqa: E402
import workloads  # noqa: E402


def one_pass(ops):
    for op in ops:
        op.run()


def jobs(lib, rounds):
    return {name: (rounds, partial(one_pass, workloads.BUILDERS[name](lib, random.Random(1),
                                                                      workloads.FULL)))
            for name in ("corroborate", "catalog", "igraphs")}


rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 20
parent, change = interleave.load(*sys.argv[1:3])
interleave.run(jobs(parent, rounds), jobs(change, rounds))
