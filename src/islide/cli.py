"""Command-line front end.

Exit codes: 0 success, 1 domain verdict (not realizable, witness found under
--expect-none, lemma failure, seed rejection), 2 usage or parse error,
3 resource cap exceeded (set count, graph6 output size, theta order, lemmas
wheel or fan size).
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, FormatError, GraphError, InvalidParameterError
from .formats import from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from .graphs import Graph, bits, fan_graph, line_graph, path_graph, cycle_graph, theta_graph, wheel_graph
from .independence import DEFAULT_SET_CAP, independence_report
from .iso import contains_induced, is_isomorphic
from .linegraphs import seed_from_line_graph
from .planar import parse_rotation_file, planar_seed
from .reconfig import (
    SlideGraph,
    build_slide_graph,
    i_graph,
    slide_graph_to_dot,
    slide_graph_to_json,
)
from .search import _SCAN_MAX_N, _class_levels, scan_for_targets
from .seeds import build_theta_seed_complement, check_seed

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_text(path: str) -> str:
    """Contents of a UTF-8 text file; FormatError (exit 2) when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_graph(args) -> Graph:
    if getattr(args, "g6", None) is not None:
        return from_graph6(args.g6)
    return from_edge_list(_read_text(args.input))


def _add_input_options(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--input", help="edge-list file (first line n, then 'u v' lines)")
    grp.add_argument("--g6", help="inline graph6 string")


def _print_slide_graph(sg: SlideGraph, rep, fmt: str) -> None:
    if fmt == "json":
        stats = {
            "i": rep.i,
            "alpha": rep.alpha,
            "i_set_count": len(rep.i_sets),
            "alpha_set_count": len(rep.alpha_sets),
            "total_mis_count": rep.total_mis_count,
        }
        body = json.loads(slide_graph_to_json(sg))
        body["stats"] = stats
        print(json.dumps(body, indent=2, sort_keys=True))
    elif fmt == "dot":
        print(slide_graph_to_dot(sg), end="")
    elif fmt == "graph6":
        print(to_graph6(sg.skeleton))
    else:
        print(f"base: n={sg.base.n} m={sg.base.edge_count()}")
        print(f"i={rep.i} alpha={rep.alpha} i-sets={len(rep.i_sets)} "
              f"alpha-sets={len(rep.alpha_sets)} maximal-independent-sets={rep.total_mis_count}")
        for idx, node in enumerate(sg.nodes):
            vs = ",".join(str(v) for v in bits(node))
            print(f"node {idx}: {{{vs}}}")
        for a, b, x, y in sg.edges:
            print(f"edge {a} -- {b}  (slide {x} -> {y})")


def cmd_compute(args) -> int:
    g = _read_graph(args)
    rep = independence_report(g, cap=args.cap)
    family = rep.alpha_sets if args.alpha else rep.i_sets
    sg = build_slide_graph(g, list(family))
    _print_slide_graph(sg, rep, args.format)
    return EXIT_OK


def cmd_seed(args) -> int:
    result = build_theta_seed_complement(args.j, args.k, args.l)
    if result.verdict == "not_realizable":
        print(f"not realizable: exception {result.reason}")
        return EXIT_VERDICT
    gbar = result.gbar
    g = gbar.complement()
    if args.format == "graph6":
        print(to_graph6(gbar))
        print(to_graph6(g))
    elif args.format == "text":
        print("complement seed gbar:")
        print(to_edge_list(gbar), end="")
        print("seed G = complement(gbar):")
        print(to_edge_list(g), end="")
    elif args.format == "dot":
        labels = {idx: name for name, idx in result.trace.names.items()}
        print(to_dot(gbar, labels=labels, name="ComplementSeed"), end="")
    else:
        payload = json.loads(result.trace.to_json())
        payload["gbar_graph6"] = to_graph6(gbar)
        payload["seed_graph6"] = to_graph6(g)
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.verify:
        verification = check_seed(result)
        for clause in verification.clauses:
            mark = "pass" if clause.passed else "FAIL"
            print(f"{mark} {clause.name}: {clause.detail}")
        if not verification.passed:
            return EXIT_VERDICT
    return EXIT_OK


def cmd_lemmas(args) -> int:
    # a sweep over no sizes would print "pass" without checking anything
    for flag, value, least in (("--wheel-max", args.wheel_max, 4), ("--fan-max", args.fan_max, 2),
                               ("--line-max", args.line_max, 2)):
        if value < least:
            raise InvalidParameterError(f"{flag}={value} must be at least {least}")
    if args.line_max > _SCAN_MAX_N:
        raise InvalidParameterError(f"--line-max={args.line_max} must be at most {_SCAN_MAX_N}")
    # every seed is built before any verdict prints, so a size above capacity prints nothing
    checks = [(f"wheel rim {k}", wheel_graph(k).complement(), f"C_{k}", cycle_graph(k))
              for k in range(4, args.wheel_max + 1)]
    checks += [(f"fan {k}", fan_graph(k).complement(), f"P_{k - 1}", path_graph(k - 1))
               for k in range(2, args.fan_max + 1)]
    failures = 0
    for label, g, shape, want in checks:
        # well covered: the alpha-sets are the i-sets, so the alpha-graph is the i-graph
        rep = independence_report(g)
        sg = build_slide_graph(g, list(rep.i_sets))
        ok = rep.well_covered and is_isomorphic(sg.skeleton, want)
        failures += not ok
        print(f"{'pass' if ok else 'FAIL'} {label}: i-graph and alpha-graph ~ {shape}")
    checked = 0
    bad = 0
    # the check is invariant under relabeling, so one graph per class will do
    for n, level in _class_levels(args.line_max, connected_only=True):
        if n == 1:
            continue
        for mask in level:
            f = Graph._from_mask(n, mask)
            if f.has_triangle():
                continue
            checked += 1
            if not is_isomorphic(i_graph(f.complement()).skeleton, line_graph(f)):
                bad += 1
    failures += bad
    print(
        f"{'pass' if bad == 0 else 'FAIL'} line-graph sweep: {checked} classes of connected "
        f"triangle-free roots on 2..{args.line_max} vertices, {bad} mismatches"
    )
    return EXIT_VERDICT if failures else EXIT_OK


def cmd_search(args) -> int:
    target = theta_graph(*args.theta) if args.theta else from_graph6(args.target)
    report = scan_for_targets([target], args.max_n, connected_only=args.connected,
                              jobs=args.jobs, stop_at_first=not (args.all or args.expect_none))[0]
    print(report.to_json())
    if args.expect_none and report.found:
        print("FATAL: witness found for a target expected to have none", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _print_seed_summary(seed: Graph) -> Graph:
    """Print the seed's graph6 and i-set counts; return its i-graph skeleton."""
    rep = independence_report(seed)
    skeleton = build_slide_graph(seed, list(rep.i_sets)).skeleton
    print(f"seed graph6: {to_graph6(seed)}")
    print(f"i={rep.i} alpha={rep.alpha} i-sets={len(rep.i_sets)}")
    return skeleton


def cmd_lineseed(args) -> int:
    h = _read_graph(args)
    ok = is_isomorphic(_print_seed_summary(seed_from_line_graph(h)), h)
    print(f"{'pass' if ok else 'FAIL'} i-graph matches the input")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_dualseed(args) -> int:
    g = _read_graph(args)
    rot = parse_rotation_file(_read_text(args.rotation), g)
    skeleton = _print_seed_summary(planar_seed(g, rot))
    contains = contains_induced(skeleton, g)
    print(f"{'pass' if contains else 'FAIL'} i-graph contains the input as an induced subgraph")
    if is_isomorphic(skeleton, g):
        print("pass i-graph is exactly the input")
    return EXIT_OK if contains else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islide",
        description="Slide reconfiguration graphs of minimum independent dominating sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="i-graph or alpha-graph of a graph")
    _add_input_options(p)
    p.add_argument("--alpha", action="store_true", help="use alpha-sets instead of i-sets")
    p.add_argument("--format", choices=("text", "json", "dot", "graph6"), default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_SET_CAP,
                   help="abort if the graph has more maximal independent sets")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("seed", help="complement seed for theta(j,k,l)")
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--verify", action="store_true", help="run the verification clauses")
    p.add_argument("--format", choices=("json", "text", "graph6", "dot"), default="json")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("lemmas", help="wheel, fan, and line-graph sweeps")
    p.add_argument("--wheel-max", type=int, default=10)
    p.add_argument("--fan-max", type=int, default=10)
    p.add_argument("--line-max", type=int, default=6,
                   help="largest root order of the line-graph sweep (2..8)")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("search", help="exhaustive seed search over the isomorphism classes of small graphs")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--target", help="target as graph6")
    grp.add_argument("--theta", nargs=3, type=int, metavar=("J", "K", "L"))
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--all", action="store_true", help="collect every witness")
    p.add_argument("--expect-none", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lineseed", help="seed a diamond-free line graph via its root")
    _add_input_options(p)
    p.set_defaults(func=cmd_lineseed)

    p = sub.add_parser("dualseed", help="seed a cubic bipartite planar graph via its dual")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--rotation", required=True, help="rotation file: 'v: a-b a-c ...'")
    p.set_defaults(func=cmd_dualseed)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (FormatError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
