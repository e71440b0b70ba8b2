"""Walk the theta-seed catalog: build, verify, and export every seed whose
target has at most MAX_ORDER vertices.

Usage: python demos/theta_gallery.py [output_dir]

Writes one graph6 line per seed to theta_seeds.g6 and a DOT file for a
showcase example, printing a verification summary as it goes.  Exits 1 if
any seed fails verification.
"""
import sys
from pathlib import Path

from islide import (
    build_theta_seed_complement,
    i_graph,
    slide_graph_to_dot,
    theta_specs_up_to,
    to_graph6,
)
from islide.seeds import check_seed

MAX_ORDER = 12


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    failed = 0
    for spec in theta_specs_up_to(MAX_ORDER):
        result = build_theta_seed_complement(*spec.as_tuple())
        if not result.is_realizable:
            print(f"{spec}: exception ({result.reason})")
            continue
        verification = check_seed(result)
        failed += not verification.passed
        status = "ok" if verification.passed else "FAILED"
        print(f"{spec}: {verification.construction_id} {status}")
        lines.append(f"{to_graph6(verification.gbar)}  # complement seed for {spec}")
    (outdir / "theta_seeds.g6").write_text("\n".join(lines) + "\n", encoding="utf-8")

    showcase = build_theta_seed_complement(2, 2, 7)
    sg = i_graph(showcase.gbar.complement())
    (outdir / "theta_2_2_7_igraph.dot").write_text(
        slide_graph_to_dot(sg), encoding="utf-8"
    )
    print(f"wrote {outdir / 'theta_seeds.g6'} and {outdir / 'theta_2_2_7_igraph.dot'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
