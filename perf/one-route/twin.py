"""Time the catalog's calls of two checkouts in one process with
``perf/interleave.py``:

    python3 perf/one-route/twin.py PARENT CHANGE

Jobs: one pass of the benchmark's catalog calls
(``build_theta_seed_complement`` on the 7 exceptions, ``verify_theta_seed``
on the 543 realizable specs of order <= 26), ``build_theta_seed_complement``
alone on all 550 specs, and ``verify_table(26, corroborate_max_n=0)``.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import interleave  # noqa: E402


def jobs(s):
    specs = [spec.as_tuple() for spec in s.theta_specs_up_to(26)]
    exceptions = {jkl for jkl in specs if jkl in s.THETA_EXCEPTIONS}
    assert len(specs) == 550 and len(exceptions) == 7

    def catalog():
        for jkl in specs:
            if jkl in exceptions:
                assert s.build_theta_seed_complement(*jkl).verdict == "not_realizable"
            else:
                assert s.verify_theta_seed(*jkl).passed

    return {
        "catalog pass (550 specs)": (60, catalog),
        "build_theta_seed_complement x 550": (100, lambda: [
            s.build_theta_seed_complement(*jkl) for jkl in specs]),
        "verify_table(26, corroborate_max_n=0)": (30, lambda: s.seeds.verify_table(26, 0)),
    }


parent, change = interleave.load(*sys.argv[1:3])
interleave.run(jobs(parent), jobs(change))
