"""The committed A/B measurement tools in ``perf/``: the in-process
interleaved timing and the summary of benchmark pairs."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERF = ROOT / "perf"

A_A_RUN = """
import gc, sys
sys.path.insert(0, sys.argv[1])
import interleave
parent, change = interleave.load(sys.argv[2], sys.argv[2])
print("packages", parent.__name__, change.__name__, parent.Graph is change.Graph)
print("files", parent.__file__, change.__file__)
jobs = lambda s: {"path": (3, lambda: s.path_graph(4).complement()),
                  "cycle": (2, lambda: s.cycle_graph(5).edges())}
interleave.run(jobs(parent), jobs(change))
print("gc enabled", gc.isenabled())
"""


def test_interleave_a_a_run_on_a_tiny_job():
    out = subprocess.run([sys.executable, "-c", A_A_RUN, str(PERF), str(ROOT)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "packages islide_parent islide False"
    parent_file, change_file = out[1].split()[1:]
    assert Path(change_file).resolve() == ROOT / "src" / "islide" / "__init__.py"
    assert Path(parent_file).parent.name == "islide_parent"
    rows = [line.split("\t") for line in out[2:-1]]
    assert [row[:2] for row in rows] == [["path", "rounds 3"], ["cycle", "rounds 2"]]
    for row in rows:
        assert row[2].startswith("parent ") and row[3].startswith("change ")
        assert row[4].startswith("change/parent median ") and row[5].startswith("quartiles ")
        assert row[6] in {f"change faster in {k}/{row[1][7:]}" for k in range(4)}
    assert out[-1] == "gc enabled True"


def test_summarize_reads_a_runs_file_without_a_workload_column():
    out = subprocess.run([sys.executable, str(PERF / "summarize.py"),
                          str(PERF / "one-route" / "runs-catalog.tsv")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    header = [cell.strip() for cell in out[0].strip("|").split("|")]
    rows = [dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
            for line in out[2:]]
    assert [row["metric"] for row in rows] == ["setup_s", "wall_s", "op_p50_ms", "op_p95_ms",
                                               "peak_rss_mb"]
    wall = rows[1]
    assert wall["runs"] == "runs-catalog.tsv" and wall["workload"] == "catalog"
    assert (wall["parent"], wall["change"], wall["ratio"]) == ("0.2468", "0.2571", "1.042")
    # quartiles as statistics.quantiles(values, n=4) takes them; the
    # "inclusive" method reads 0.0176 on the same runs
    assert abs(float(wall["parent IQR"]) - 0.0216) < 1e-4
    assert wall["wins"] == "4/10" and wall["resolved"] == "no" and wall["failed"] == "0/0"
