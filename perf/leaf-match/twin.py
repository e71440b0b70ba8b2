"""Time ``canonical_key`` of two checkouts in one process, interleaved call by
call, so that drift in the host's speed hits both alike:

    python3 perf/leaf-match/twin.py PARENT CHANGE

PARENT's package is copied to a temporary directory as ``islide_parent``.
Prints, per probe graph of the traced benchmark, the median and quartiles of
the per-call time ratio change / parent, with the collector off.
"""
import gc
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

parent, change = (Path(p).resolve() for p in sys.argv[1:3])
tmp = Path(tempfile.mkdtemp())
shutil.copytree(parent / "src" / "islide", tmp / "islide_parent")
sys.path[:0] = [str(change / "src"), str(tmp)]
import islide  # noqa: E402
import islide_parent  # noqa: E402

k2, k3, c4 = islide.complete_graph(2), islide.complete_graph(3), islide.cycle_graph(4)
q3 = islide.cartesian_product(islide.cartesian_product(k2, k2), k2)
probes = {
    "Q3": q3,
    "Q4": islide.cartesian_product(q3, k2),
    "K44": islide.Graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
    "K333": islide.cartesian_product(islide.cartesian_product(k3, k3), k3),
    "4C4": islide.disjoint_union(islide.disjoint_union(c4, c4), islide.disjoint_union(c4, c4)),
}
gc.disable()
for name, g in probes.items():
    gp = islide_parent.Graph(g.n, g.edges())
    assert islide_parent.canonical_key(gp) == islide.canonical_key(g)
    ratios = []
    for _ in range(300):
        t = time.perf_counter()
        islide_parent.canonical_key(gp)
        a = time.perf_counter() - t
        t = time.perf_counter()
        islide.canonical_key(g)
        ratios.append((time.perf_counter() - t) / a)
    q1, med, q3_ = statistics.quantiles(ratios, n=4)
    print(f"{name}\tchange/parent median {med:.3f}\tquartiles {q1:.3f} {q3_:.3f}")
shutil.rmtree(tmp)
