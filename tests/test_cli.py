import dataclasses
import json

import islide.cli
from islide import (
    cycle_graph,
    from_edge_list,
    from_graph6,
    i_graph,
    line_graph,
    path_graph,
    slide_graph_from_json,
    to_edge_list,
    to_graph6,
)
from islide.cli import main
from islide.planar import rotation_to_file
from islide.seeds import ClauseResult
from bruteforce import brute_classes, house_seed_graph
from test_planar import cube_on_torus, cube_with_rotation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_k3(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw")
    assert code == 0
    assert "i=1 alpha=1 i-sets=3" in out


def test_compute_c4_has_two_frozen_nodes(capsys):
    code, out, _ = run(capsys, "compute", "--g6", to_graph6(cycle_graph(4)))
    assert code == 0
    assert "node 0: {0,2}" in out
    assert "node 1: {1,3}" in out
    assert "edge" not in out


def test_compute_house_seed_file(tmp_path, capsys):
    g = house_seed_graph()
    path = tmp_path / "seed.edges"
    path.write_text(to_edge_list(g), encoding="utf-8")
    code, out, _ = run(capsys, "compute", "--input", str(path))
    assert code == 0
    assert "i-sets=5" in out


def test_compute_json_roundtrips(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["i"] == 1
    sg = slide_graph_from_json(json.dumps(payload))
    assert sg.node_count() == 3


def test_compute_bad_input(capsys):
    code, _, err = run(capsys, "compute", "--g6", "~~~")
    assert code == 2
    assert "error" in err


def test_empty_g6_is_usage_error(capsys):
    for command in ("compute", "lineseed"):
        code, out, err = run(capsys, command, "--g6", "")
        assert code == 2 and out == ""
        assert "empty graph6 string" in err


def test_compute_alpha_flag(capsys):
    code, out, _ = run(capsys, "compute", "--g6", to_graph6(cycle_graph(5)), "--alpha")
    assert code == 0
    assert "alpha-sets=5" in out


def test_compute_cap_exit(capsys):
    from islide import Graph

    matching = Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
    code, _, err = run(capsys, "compute", "--g6", to_graph6(matching), "--cap", "100")
    assert code == 3
    assert "resource cap" in err


def test_compute_graph6_large_igraph(tmp_path, capsys):
    from islide import Graph

    # 5*K3 on 15 vertices has 3^5 = 243 i-sets: graph6 writes the 4-byte size form
    five_triangles = Graph(15, [(3 * t + a, 3 * t + b) for t in range(5)
                                for a, b in ((0, 1), (0, 2), (1, 2))])
    path = tmp_path / "5K3.edges"
    path.write_text(to_edge_list(five_triangles), encoding="utf-8")
    code, out, err = run(capsys, "compute", "--input", str(path), "--format", "graph6")
    assert code == 0 and err == ""
    line = out.strip()
    assert line.startswith("~?Br")  # 243 = 3 * 64 + 51
    assert len(line) == 4 + (243 * 242 // 2 + 5) // 6
    assert line == to_graph6(i_graph(five_triangles).skeleton)


def test_seed_theta_order_is_cap_exit(capsys):
    code, _, err = run(capsys, "seed", "30", "30", "30")
    assert code == 3
    assert "resource cap" in err and "89 vertices" in err


def test_seed_63_vertex_seed_json_and_verify(capsys):
    # theta(21,21,23) has order 64; its complement seed has 63 vertices
    code, out, _ = run(capsys, "seed", "21", "21", "23")
    assert code == 0
    payload = json.loads(out)
    assert payload["gbar_graph6"].startswith("~??~")
    assert from_graph6(payload["seed_graph6"]) == from_graph6(payload["gbar_graph6"]).complement()
    code, out, _ = run(capsys, "seed", "21", "21", "23", "--verify")
    assert code == 0
    assert "pass i_graph_isomorphic" in out
    assert "FAIL" not in out


def test_seed_verify_pass(capsys):
    code, out, _ = run(capsys, "seed", "1", "4", "5", "--verify")
    assert code == 0
    assert '"construction_id": "C_1kl"' in out
    assert "pass i_graph_isomorphic" in out
    assert "FAIL" not in out


def test_seed_exception_exit(capsys):
    code, out, _ = run(capsys, "seed", "2", "2", "3")
    assert code == 1
    assert "kappa" in out


def test_seed_invalid_exit(capsys):
    code, _, err = run(capsys, "seed", "1", "1", "4")
    assert code == 2


def test_seed_555_verifies(capsys):
    code, out, _ = run(capsys, "seed", "5", "5", "5", "--verify")
    assert code == 0
    assert '"construction_id": "C_jk5"' in out
    assert "FAIL" not in out


def test_search_expect_none(capsys):
    code, out, _ = run(capsys, "search", "--theta", "2", "2", "4",
                       "--max-n", "5", "--expect-none")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses_graph6"] == []


def test_search_finds_house(capsys):
    code, out, _ = run(capsys, "search", "--theta", "1", "2", "3", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witnesses_graph6"]) == 1


def test_search_expect_none_violated(capsys):
    code, out, err = run(capsys, "search", "--target", "Bw", "--max-n", "3",
                         "--expect-none")
    assert code == 1
    assert "FATAL" in err


def test_search_expect_none_honours_connected(capsys):
    code, out, _ = run(capsys, "search", "--target", "Bw", "--max-n", "3",
                       "--expect-none", "--connected")
    assert code == 1
    payload = json.loads(out)
    assert payload["connected_only"] is True
    assert payload["graphs_examined"] == 1 + 1 + 2  # connected classes on 1..3 vertices


def test_search_needs_exactly_one_target(capsys):
    code, _, _ = run(capsys, "search", "--max-n", "3")
    assert code == 2
    code, out, _ = run(capsys, "search", "--target", "Bw", "--theta", "1", "2", "3",
                       "--max-n", "3")
    assert code == 2 and out == ""


def test_search_invalid_theta_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--theta", "1", "1", "2", "--max-n", "3")
    assert code == 2
    assert "error" in err


def test_lineseed_cycle(capsys):
    code, out, _ = run(capsys, "lineseed", "--g6", to_graph6(cycle_graph(6)))
    assert code == 0
    assert "pass i-graph matches the input" in out


def test_lineseed_prints_its_seed_summary_and_verdict(capsys):
    code, out, err = run(capsys, "lineseed", "--g6", "EhEG")
    assert (code, out, err) == (0, "seed graph6: EMyo\ni=2 alpha=2 i-sets=6\n"
                                   "pass i-graph matches the input\n", "")


def test_lineseed_63_vertex_seed(capsys):
    # the root of P62 is P63, so the seed has 63 vertices
    code, out, _ = run(capsys, "lineseed", "--g6", to_graph6(path_graph(62)))
    assert code == 0
    assert "pass i-graph matches the input" in out
    seed = from_graph6(out.splitlines()[0].removeprefix("seed graph6: "))
    assert seed.n == 63


def test_lineseed_diamond_rejected(capsys):
    code, _, err = run(capsys, "lineseed", "--g6", "C^")
    assert code == 1
    assert "rejected" in err


def test_lineseed_claw_rejected(capsys):
    code, _, err = run(capsys, "lineseed", "--g6", "CF")
    assert code == 1
    assert "no Krausz partition" in err


def test_dualseed_cube(tmp_path, capsys):
    g, rot = cube_with_rotation()
    gpath = tmp_path / "cube.edges"
    rpath = tmp_path / "cube.rot"
    gpath.write_text(to_edge_list(g), encoding="utf-8")
    rpath.write_text(rotation_to_file(g, rot), encoding="utf-8")
    code, out, _ = run(capsys, "dualseed", "--input", str(gpath),
                       "--rotation", str(rpath))
    assert code == 0
    assert "pass i-graph contains the input" in out
    assert "pass i-graph is exactly the input" in out


def test_dualseed_prints_its_seed_summary_and_verdicts(tmp_path, capsys):
    g, rot = cube_with_rotation()
    gpath = tmp_path / "cube.edges"
    rpath = tmp_path / "cube.rot"
    gpath.write_text(to_edge_list(g), encoding="utf-8")
    rpath.write_text(rotation_to_file(g, rot), encoding="utf-8")
    code, out, err = run(capsys, "dualseed", "--input", str(gpath), "--rotation", str(rpath))
    assert (code, out, err) == (0, "seed graph6: E@`?\ni=3 alpha=3 i-sets=8\n"
                                   "pass i-graph contains the input as an induced subgraph\n"
                                   "pass i-graph is exactly the input\n", "")


def test_dualseed_rejects_torus_rotation(tmp_path, capsys):
    g, rot = cube_on_torus()
    gpath = tmp_path / "cube.edges"
    rpath = tmp_path / "torus.rot"
    gpath.write_text(to_edge_list(g), encoding="utf-8")
    rpath.write_text(rotation_to_file(g, rot), encoding="utf-8")
    code, out, err = run(capsys, "dualseed", "--input", str(gpath),
                         "--rotation", str(rpath))
    assert code == 1 and out == ""
    assert "rejected: rotation does not describe a sphere embedding" in err


def test_dualseed_rejects_a_bad_rotation_line_as_usage_error(tmp_path, capsys):
    g, rot = cube_with_rotation()
    gpath = tmp_path / "cube.edges"
    rpath = tmp_path / "repeat.rot"
    gpath.write_text(to_edge_list(g), encoding="utf-8")
    rpath.write_text(rotation_to_file(g, rot).replace("0: 0-1 0-3 0-4", "0: 0-1 0-3 0-1", 1),
                     encoding="utf-8")
    code, out, err = run(capsys, "dualseed", "--input", str(gpath),
                         "--rotation", str(rpath))
    assert code == 2 and out == ""
    assert "error: repeated neighbor in rotation at 0" in err


def test_lemmas_small(capsys):
    code, out, _ = run(capsys, "lemmas", "--wheel-max", "6", "--fan-max", "6",
                       "--line-max", "5")
    assert code == 0
    assert "FAIL" not in out


def test_lemmas_line_sweep_checks_one_root_per_class(capsys):
    # the sweep walks isomorphism classes: its running count of connected
    # triangle-free roots matches the oracle's classes size by size
    total = 0
    for n in range(2, 6):
        total += sum(g.is_connected() and not g.has_triangle() for g in brute_classes(n))
        code, out, _ = run(capsys, "lemmas", "--wheel-max", "4", "--fan-max", "2",
                           "--line-max", str(n))
        assert code == 0
        assert f"line-graph sweep: {total} classes of connected triangle-free roots" in out
    assert total == 11


def test_compute_dot_and_graph6_formats(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--format", "dot")
    assert code == 0 and "SlideGraph" in out
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--format", "graph6")
    assert code == 0 and out.strip() == "Bw"


def test_seed_graph6_format(capsys):
    code, out, _ = run(capsys, "seed", "1", "4", "5", "--format", "graph6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "H|fJ@Cp"
    assert len(lines) == 2


def test_seed_text_format_lists_a_seed_and_its_complement(capsys):
    code, out, _ = run(capsys, "seed", "1", "2", "3", "--format", "text")
    assert code == 0
    head, _, rest = out.partition("complement seed gbar:\n")
    gbar_text, _, g_text = rest.partition("seed G = complement(gbar):\n")
    assert head == "" and g_text
    gbar, g = from_edge_list(gbar_text), from_edge_list(g_text)
    assert g.adj == gbar.complement().adj


def test_seed_dot_format_carries_names(capsys):
    code, out, _ = run(capsys, "seed", "1", "4", "5", "--format", "dot")
    assert code == 0
    assert '[label="w0"]' in out
    assert '[label="v1"]' in out


def test_unreadable_input_files_are_usage_errors(tmp_path, capsys):
    binary = tmp_path / "binary.g"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    g, rot = cube_with_rotation()
    gpath = tmp_path / "cube.edges"
    gpath.write_text(to_edge_list(g), encoding="utf-8")
    for argv, path in (
        (("compute", "--input", str(tmp_path)), tmp_path),
        (("lineseed", "--input", str(binary)), binary),
        (("dualseed", "--input", str(gpath), "--rotation", str(tmp_path)), tmp_path),
        (("compute", "--input", str(tmp_path / "missing.g")), tmp_path / "missing.g"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"cannot read {path}" in err


def test_search_jobs_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--theta", "1", "2", "3", "--max-n", "3",
                         "--jobs", "0")
    assert code == 2 and out == ""
    assert "jobs" in err


def test_compute_cap_below_one_is_usage_error(capsys):
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "compute", "--g6", "Bw", "--cap", cap)
        assert code == 2 and out == ""
        assert "cap" in err


def test_lemmas_empty_sweep_is_usage_error(capsys):
    for flag, value in (("--wheel-max", "3"), ("--fan-max", "1"), ("--line-max", "1")):
        code, out, err = run(capsys, "lemmas", "--wheel-max", "4", "--fan-max", "2",
                             "--line-max", "2", flag, value)
        assert code == 2 and out == ""
        assert flag in err


def test_lemmas_line_max_above_scan_bound_is_usage_error(capsys):
    # rejected before the wheel and fan sweeps print anything
    code, out, err = run(capsys, "lemmas", "--line-max", "9")
    assert code == 2 and out == ""
    assert "--line-max" in err


def test_lemmas_above_capacity_is_cap_exit_before_any_verdict(capsys):
    for flag in ("--wheel-max", "--fan-max"):
        code, out, err = run(capsys, "lemmas", "--wheel-max", "4", "--fan-max", "2",
                             "--line-max", "2", flag, "64")
        assert code == 3 and out == ""
        assert "resource cap" in err


def test_seed_verify_exits_1_when_a_clause_fails(monkeypatch, capsys):
    real = islide.cli.check_seed

    def tampered(result):
        v = real(result)
        return dataclasses.replace(v, clauses=v.clauses + (ClauseResult("i_value", False, "tampered"),))

    monkeypatch.setattr(islide.cli, "check_seed", tampered)
    code, out, _ = run(capsys, "seed", "5", "5", "5", "--verify")
    assert code == 1
    assert "FAIL i_value: tampered" in out


def test_lemmas_exit_1_on_a_line_sweep_mismatch(monkeypatch, capsys):
    # a wrong line graph for every root with two or more edges
    monkeypatch.setattr(islide.cli, "line_graph", lambda f: line_graph(f).complement())
    code, out, _ = run(capsys, "lemmas", "--wheel-max", "4", "--fan-max", "2", "--line-max", "4")
    assert code == 1
    assert "pass wheel rim 4" in out and "pass fan 2" in out
    assert "FAIL line-graph sweep" in out
