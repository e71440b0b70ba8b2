"""One-shot runs of the repository's own class-walk callers, each in a fresh
process, for a parent and a change checkout, in alternating pairs:

    python3 perf/level-store/callers.py PARENT CHANGE [PAIRS] > callers.tsv

Each row is one run: the caller, the pair, the side, the process's wall
time (interpreter start, import and call), the call's own time and the
child's peak RSS.  Where the checkout has a level store, the row also gives
the levels the call's walks yielded and the levels it built; a level
yielded but not built was read from the store, so ``1 - built / yielded``
is the share of the call's levels that the store saved.  Odd pairs run the
parent first, even pairs the change first.
"""
import json
import os
import subprocess
import sys
import time

CALLERS = {
    # islide search --theta 1 2 3 --max-n 8 --all: one full scan to 8
    "search-all": ("cli", ["search", "--theta", "1", "2", "3", "--max-n", "8", "--all"]),
    # islide search --theta 1 2 3 --max-n 8: a seed search, stopped at the first level with one
    "search-first": ("cli", ["search", "--theta", "1", "2", "3", "--max-n", "8"]),
    # islide lemmas --line-max 8: the connected classes to 8
    "lemmas": ("cli", ["lemmas", "--line-max", "8"]),
    # the table with its corroborating scan to 8
    "verify_table": ("table", None),
}


def child(checkout: str, caller: str) -> None:
    sys.path.insert(0, os.path.join(checkout, "src"))
    import contextlib
    import io

    import islide.search as search

    counts = {"yielded": 0, "built": 0}
    if hasattr(search, "_LEVELS"):
        class Counted(dict):
            # _class_levels asks ``n not in _LEVELS`` once per level it
            # yields and calls setdefault once per level it builds
            def __contains__(self, n):
                counts["yielded"] += 1
                return dict.__contains__(self, n)

            def setdefault(self, n, level):
                counts["built"] += 1
                return dict.setdefault(self, n, level)

        search._LEVELS = Counted()
    kind, argv = CALLERS[caller]
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if kind == "cli":
            from islide.cli import main
            code = main(argv)
        else:
            from islide.seeds import verify_table
            code = 0 if verify_table(26, corroborate_max_n=8).passed else 1
    took = time.perf_counter() - t
    assert code == 0, (caller, code)
    print(json.dumps({"call_s": took, **(counts if hasattr(search, "_LEVELS") else {})}))


def run(checkout: str, caller: str) -> dict:
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--child", checkout, caller],
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert status == 0, (checkout, caller, status)
    return {"process_s": time.perf_counter() - t, "peak_rss_mb": usage.ru_maxrss / 1024,
            **json.loads(out)}


def main(parent: str, change: str, pairs: int) -> None:
    cols = ["caller", "pair", "side", "process_s", "call_s", "peak_rss_mb", "yielded", "built"]
    print("\t".join(cols))
    for caller in CALLERS:
        for pair in range(1, pairs + 1):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if pair % 2 else sides[::-1]:
                row = {"caller": caller, "pair": pair, "side": side, **run(checkout, caller)}
                print("\t".join(str(row.get(c, "")) for c in cols), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    else:
        main(sys.argv[1], sys.argv[2], int(sys.argv[3]) if len(sys.argv) > 3 else 10)
