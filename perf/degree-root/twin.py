"""Time seed building and the catalog's isomorphism tests of two checkouts
in one process with ``perf/interleave.py``:

    python3 perf/degree-root/twin.py PARENT CHANGE

First prints, per side, the ``iso._refine`` calls (tree nodes) of one
``verify_table(26, corroborate_max_n=0)``.  Then times three jobs: building
the 543 realizable seeds of order <= 26; the ``is_isomorphic`` calls
``check_seed`` makes on them (each i-graph skeleton against its theta graph,
and each alpha-graph skeleton of a seed that is not well covered), on
skeletons built once; and the whole catalog pass, ``verify_table(26,
corroborate_max_n=0)``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import interleave  # noqa: E402


def refine_calls(s):
    iso = s.iso
    real = iso._refine
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    iso._refine = counted
    try:
        assert s.seeds.verify_table(26, corroborate_max_n=0).passed
    finally:
        iso._refine = real
    return calls[0]


def jobs(s):
    specs = [spec.as_tuple() for spec in s.theta_specs_up_to(26)
             if spec.as_tuple() not in s.THETA_EXCEPTIONS]
    assert len(specs) == 543
    pairs = []
    for jkl in specs:
        g = s.build_theta_seed_complement(*jkl).gbar.complement()
        rep = s.independence_report(g)
        target = s.theta_graph(*jkl)
        pairs.append((s.build_slide_graph(g, list(rep.i_sets)).skeleton, target))
        if not rep.well_covered:
            pairs.append((s.build_slide_graph(g, list(rep.alpha_sets)).skeleton, target))
    return {
        "build the 543 seeds": (100, lambda: [s.build_theta_seed_complement(*jkl) for jkl in specs]),
        f"is_isomorphic, {len(pairs)} catalog calls": (
            50, lambda: [s.is_isomorphic(a, b) for a, b in pairs]),
        "verify_table(26, corroborate_max_n=0)": (20, lambda: s.seeds.verify_table(26, 0)),
    }


parent, change = interleave.load(*sys.argv[1:3])
print(f"_refine calls per catalog pass\tparent {refine_calls(parent)}"
      f"\tchange {refine_calls(change)}", flush=True)
interleave.run(jobs(parent), jobs(change))
