"""Time ``canonical_key`` of two checkouts in one process with
``perf/interleave.py``:

    python3 perf/leaf-match/twin.py PARENT CHANGE

One job per probe graph of the traced benchmark, 300 calls per side, after
checking that both sides give the same key.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import interleave  # noqa: E402


def jobs(s):
    k2, k3, c4 = s.complete_graph(2), s.complete_graph(3), s.cycle_graph(4)
    q3 = s.cartesian_product(s.cartesian_product(k2, k2), k2)
    probes = {
        "Q3": q3,
        "Q4": s.cartesian_product(q3, k2),
        "K44": s.Graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
        "K333": s.cartesian_product(s.cartesian_product(k3, k3), k3),
        "4C4": s.disjoint_union(s.disjoint_union(c4, c4), s.disjoint_union(c4, c4)),
    }
    return {name: (300, lambda g=g: s.canonical_key(g)) for name, g in probes.items()}


parent, change = interleave.load(*sys.argv[1:3])
sides = jobs(parent), jobs(change)
for name, (_, key) in sides[0].items():
    assert key() == sides[1][name][1](), name
interleave.run(*sides)
