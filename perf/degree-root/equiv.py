"""Check that two checkouts label every graph alike:

    python3 perf/degree-root/equiv.py PARENT CHANGE

PARENT's package is copied to a temporary directory as ``islide_parent``.
Asserts that ``iso._canonical`` returns the same key, relabelling and
generator list on both sides for every labeled graph on at most 6 vertices
and for 20,000 random graphs on 7 to 10 vertices (seed 5), then prints the
SHA-256 of the class levels to n = 8 on each side.
"""
import hashlib
import random
import shutil
import sys
import tempfile
from pathlib import Path

parent, change = (Path(p).resolve() for p in sys.argv[1:3])
tmp = Path(tempfile.mkdtemp())
shutil.copytree(parent / "src" / "islide", tmp / "islide_parent")
sys.path[:0] = [str(change / "src"), str(tmp)]
import islide.search  # noqa: E402
import islide_parent.search  # noqa: E402
from islide import Graph, iso  # noqa: E402
from islide_parent import Graph as ParentGraph, iso as parent_iso  # noqa: E402


def same(n, mask):
    assert iso._canonical(Graph._from_mask(n, mask)) == \
        parent_iso._canonical(ParentGraph._from_mask(n, mask)), (n, mask)


labeled = 0
for n in range(1, 7):
    for mask in range(1 << n * (n - 1) // 2):
        same(n, mask)
        labeled += 1
rng = random.Random(5)
for _ in range(20000):
    n = rng.randint(7, 10)
    p = rng.random()
    same(n, sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < p))
print(f"same (key, relabelling, generators) on {labeled} labeled graphs on <= 6 vertices"
      " and 20000 random graphs on 7-10")
for name, search in (("parent", islide_parent.search), ("change", islide.search)):
    digest = hashlib.sha256(repr(list(search._class_levels(8, False))).encode()).hexdigest()
    print(f"{name} levels to 8: sha256 {digest}")
shutil.rmtree(tmp)
