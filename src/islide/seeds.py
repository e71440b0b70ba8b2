"""Complement-seed constructions for theta graphs, plus deletion of one
i-set and the verification harness.  Seeds from other routes live with
the code that rejects their inputs: ``linegraphs.seed_from_line_graph``
and ``planar.planar_seed``.

Every builder returns the complement seed: a graph gbar whose triangles
that are maximal cliques are the i-sets of G = complement(gbar), adjacent
exactly when they share an edge.  The catalog follows one recipe: a wheel
supplies two of the three pole-to-pole paths of the target theta graph, an
attached path of v-vertices supplies the third, and apex vertices are glued
onto unwanted triangles to knock them out of the i-set family (at the price
of creating a K_4, which bumps alpha to 4 and breaks the alpha-graph
analogue for those arms).

The catalog is one ordered table, ``_ARMS``, most specific arm first.  A row
gives the specs (j, k, l) the arm covers, the draft, and alpha of the seed.
A draft declares gbar: the rim of the wheel in cyclic order from w1, w2
(the hub w0 is joined to all of it), the edges beyond the wheel, the rim
pair whose triangle with the hub is the far pole Y (the near pole X is
always the triangle w0, w1, w2), and the labels of the triangles off the
wheel; the labels on the wheel are read from the two rim arcs between X
and Y.  Dispatch (``applicable_constructions``) and the one builder
(``_build``) both read that table, and ``_build`` is the one place a
``ConstructionTrace`` is made.  LINE_ROOT (gbar is the line-graph root of
the theta graph) and G_334 (a fixed 9-vertex seed) are the two rows not
drafted from a wheel.

``build_theta_seed_complement(j, k, l)`` builds the first arm covering the
triple, and a bad triple raises from ``ThetaSpec``: ``InvalidThetaSpecError``
when malformed, ``CapacityError`` above 64 vertices.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

from .errors import DeletionPreconditionError, InvalidParameterError
from .formats import to_graph6
from .graphs import Graph, ThetaSpec, _check_int, bits, mask_of, theta
from .independence import independence_report
from .iso import is_isomorphic
from .linegraphs import line_graph_root
from .reconfig import build_slide_graph
from .search import _SCAN_MAX_N, SearchReport, scan_for_targets

THETA_EXCEPTIONS: dict[tuple[int, int, int], str] = {
    (1, 2, 2): "diamond = theta(1,2,2)",
    (2, 2, 2): "K_{2,3} = theta(2,2,2)",
    (2, 2, 3): "kappa = theta(2,2,3)",
    (2, 2, 4): "theta(2,2,4)",
    (2, 3, 3): "theta(2,3,3)",
    (2, 3, 4): "theta(2,3,4)",
    (3, 3, 3): "theta(3,3,3)",
}


@dataclass(frozen=True)
class ConstructionTrace:
    """What one arm of the theta table promises about its seed, which
    check_seed verifies end to end: which arm ran on which (j, k, l), the
    vertex-name map of the complement seed, the labeled i-sets, and the
    predicted size and alpha behaviour of the resulting i-graph."""

    construction_id: str
    params: tuple[int, int, int]
    names: dict[str, int]
    expected_labels: dict[str, int]
    expected_order: int
    expected_i: int
    expected_alpha: int

    @property
    def alpha_equal(self) -> bool:
        """The alpha-graph is the i-graph exactly when alpha equals i, since
        then every maximal independent set has the same size."""
        return self.expected_alpha == self.expected_i

    def to_json(self) -> str:
        payload = {
            "construction_id": self.construction_id,
            "params": list(self.params),
            "names": self.names,
            "expected_labels": {
                k: sorted(bits(m)) for k, m in self.expected_labels.items()
            },
            "expected_order": self.expected_order,
            "alpha_equal": self.alpha_equal,
            "expected_i": self.expected_i,
            "expected_alpha": self.expected_alpha,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class SeedResult:
    verdict: str  # "realizable" | "not_realizable"; a bad triple raises
    gbar: Graph | None = None
    trace: ConstructionTrace | None = None
    reason: str | None = None

    @property
    def is_realizable(self) -> bool:
        return self.verdict == "realizable"


# -- wheel drafts --------------------------------------------------------

_NAME_CLASS = {"w": 1, "u": 2, "v": 3, "z": 4}

_Edges = list[tuple[str, str]]
_Triples = dict[str, tuple[str, ...]]


@cache
def _name_key(name: str) -> tuple[int, int]:
    """Sort key of a draft vertex name: the hub w0, then w, u, v and z
    names by number, a primed name right after its unprimed one.  Cached,
    since every draft reuses the same few names; an unexpected name is
    never cached and raises on every call."""
    if name == "w0":
        return (0, 0)
    m = re.fullmatch(r"([wuvz])(\d*)('?)", name)
    if not m:
        raise InvalidParameterError(f"unexpected vertex name {name!r}")
    cls = _NAME_CLASS[m.group(1)]
    num = int(m.group(2)) if m.group(2) else 0
    return (cls, 2 * num + (1 if m.group(3) else 0))


def _freeze(rim: list[str], extra: _Edges) -> tuple[Graph, dict[str, int]]:
    """The hub w0 joined to every rim vertex, the rim cycle and the extra
    edges as a Graph, vertices in _name_key order so seed output is
    byte-stable.  The edges go to Graph as the draft lists them: its rows
    are bitmasks, so their order does not matter, and an edge repeated in
    either orientation raises there."""
    pairs = [("w0", r) for r in rim] + list(zip(rim, rim[1:] + rim[:1])) + extra
    order = sorted({v for pair in pairs for v in pair}, key=_name_key)
    names = {name: i for i, name in enumerate(order)}
    return Graph(len(order), [(names[a], names[b]) for a, b in pairs]), names


def _wheel_side_labels(rim: list[str], y: tuple[str, str]) -> _Triples:
    """Name the hub triangles: X at w1, w2 (the rim starts there), Y at the
    rim pair y, A_* along the arc forward from X to Y, B_* along the arc
    backward."""
    iy = rim.index(y[0])
    labels: _Triples = {"X": ("w0", rim[0], rim[1]), "Y": ("w0",) + y}
    for tag, arc in (("A", rim[1:iy + 1]), ("B", (rim[iy + 1:] + rim[:1])[::-1])):
        side = [("w0", a, b) for a, b in zip(arc, arc[1:])]
        if len(side) == 1:
            labels[tag] = side[0]
        else:
            labels.update((f"{tag}_{i}", t) for i, t in enumerate(side, start=1))
    return labels


def _path(l: int, hook: str, corner: str) -> tuple[_Edges, tuple[str, str], _Triples]:
    """The third theta path: w2, v1, ..., v{l-3} with w1 fanned onto
    v1..v{l-4}, a chord from v{l-5} (w2 when l = 5) to v{l-3}, hook joined
    to the last two path vertices and corner to the last one.  Returns its
    edges, the far pole Y at corner, hook and the labels of its triangles:
    w1-fanned ones, one on three path vertices, then the hand-off through
    hook to corner."""
    vs = ["w2"] + [f"v{i}" for i in range(1, l - 2)]
    edges = list(zip(vs, vs[1:])) + [("w1", v) for v in vs[1:l - 3]]
    edges += [(vs[l - 5], vs[l - 3]), (hook, vs[l - 4]), (hook, vs[l - 3]),
              (corner, vs[l - 3])]
    labels = {f"D_{i}": ("w1", vs[i - 1], vs[i]) for i in range(1, l - 3)}
    labels[f"D_{l - 3}"] = (vs[l - 5], vs[l - 4], vs[l - 3])
    labels[f"D_{l - 2}"] = (hook, vs[l - 4], vs[l - 3])
    labels[f"D_{l - 1}"] = (corner, hook, vs[l - 3])
    return edges, (corner, hook), labels


# Each draft returns the rim in cyclic order starting w1, w2, the edges
# beyond the wheel, the rim pair whose triangle with the hub is the far
# pole Y, and the labels of the triangles off the wheel.
_Wheel = tuple[list[str], _Edges, tuple[str, str], _Triples]


def _draft_1kl(j: int, k: int, l: int) -> _Wheel:
    """Wheel on k+1 rim vertices plus the path w1, v1, ..., v{l-2}, w3 with
    every v joined to w2."""
    path = ["w1"] + [f"v{i}" for i in range(1, l - 1)] + ["w3"]
    steps = list(zip(path, path[1:]))
    extra = [(v, "w2") for v in path[1:-1]] + steps
    labels = {f"D_{i}": ("w2", a, b) for i, (a, b) in enumerate(steps, start=1)}
    return [f"w{i}" for i in range(1, k + 2)], extra, ("w2", "w3"), labels


def _draft_2kl(j: int, k: int, l: int) -> _Wheel:
    """Rim w1, w2, w3, w4, w5, ..., w{k+2} with the path attached (Y at w3,
    w4) and apex z2 on the triangle w2, w3, v2 the path makes when l = 5."""
    extra, y, labels = _path(l, "w4", "w3")
    if l == 5:
        extra += [("z2", v) for v in ("v2", "w2", "w3")]
    return [f"w{i}" for i in range(1, k + 3)], extra, y, labels


def _draft_22l(j: int, k: int, l: int) -> _Wheel:
    """The 2,2,l draft: apex z (z1 when l = 5) on the triangle w1, w4,
    v{l-4} that the rim edge w4-w1 closes."""
    rim, extra, y, labels = _draft_2kl(j, k, l)
    z = "z1" if l == 5 else "z"
    return rim, extra + [(z, v) for v in ("w1", "w4", f"v{l - 4}")], y, labels


def _draft_flap(j: int, k: int, l: int) -> _Wheel:
    """Rim w1, w2, u1, ..., u{j-2}, w3, w4, w5, w6, w7, ..., w{l+2} with
    chord w1-w4, the single path vertex v joined to w1..w4 and apex z' on
    the triangle w0, w1, w4 (on 2,4,4 apex z kills the triangle v, w2, w3
    as well)."""
    rim = (["w1", "w2"] + [f"u{i}" for i in range(1, j - 1)]
           + [f"w{i}" for i in range(3, l + 3)])
    extra = [("w1", "w4")] + [("v", w) for w in ("w1", "w2", "w3", "w4")]
    extra += [("z'", w) for w in ("w0", "w1", "w4")]
    if j == 2:
        extra += [("z", v) for v in ("v", "w2", "w3")]
    labels = {
        "D_1": ("w1", "w2", "v"),
        "D_2": ("w1", "w4", "v"),
        "D_3": ("w3", "w4", "v"),
    }
    return rim, extra, ("w3", "w4"), labels


def _draft_jkl(j: int, k: int, l: int) -> _Wheel:
    """Rim w1, w2, u{j-3}, ..., u1, w3, w4, w5, w6, w7, ..., w{k+3} with the
    path attached (Y at w4, w5)."""
    extra, y, labels = _path(l, "w5", "w4")
    rim = (["w1", "w2"] + [f"u{i}" for i in range(j - 3, 0, -1)]
           + [f"w{i}" for i in range(3, k + 4)])
    return rim, extra, y, labels


def seed_graph_334() -> Graph:
    """The 9-vertex graph whose i-graph is theta(3,3,4), given directly
    rather than through a wheel complement."""
    return Graph(9, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 7),
        (1, 2), (2, 3), (3, 4), (4, 1),
        (1, 5), (2, 5),
        (3, 6), (4, 6),
        (1, 7), (4, 7),
        (7, 8),
    ])


_G334_LABELS = {
    "X": (2, 6, 8),
    "Y": (3, 5, 8),
    "A_1": (2, 4, 8),
    "A_2": (4, 5, 8),
    "B_1": (1, 6, 8),
    "B_2": (1, 3, 8),
    "D_1": (2, 6, 7),
    "D_2": (5, 6, 7),
    "D_3": (3, 5, 7),
}


# -- the construction table ----------------------------------------------

class _Arm(NamedTuple):
    """One row of the catalog; draft is None on the two rows not drafted
    from a wheel."""

    covers: Callable[[int, int, int], bool]
    draft: Callable[[int, int, int], _Wheel] | None = None
    alpha: int = 3


# most specific first: applicable_constructions keeps this order and
# build_theta_seed_complement takes its first match
_ARMS: dict[str, _Arm] = {
    "LINE_ROOT": _Arm(lambda j, k, l: j == 1 and k == 2, alpha=2),
    "C_1kl": _Arm(lambda j, k, l: j == 1 and k >= 3, _draft_1kl),
    "C_22l_b": _Arm(lambda j, k, l: (j, k, l) == (2, 2, 5), _draft_22l, 4),
    "C_22l_a": _Arm(lambda j, k, l: (j, k) == (2, 2) and l >= 6, _draft_22l, 4),
    "C_23l_b": _Arm(lambda j, k, l: (j, k, l) == (2, 3, 5), _draft_2kl, 4),
    "C_23l_a": _Arm(lambda j, k, l: (j, k) == (2, 3) and l >= 6, _draft_2kl),
    "C_244": _Arm(lambda j, k, l: (j, k, l) == (2, 4, 4), _draft_flap, 4),
    "C_2k5": _Arm(lambda j, k, l: j == 2 and k in (4, 5) and l == 5, _draft_2kl, 4),
    "G_334": _Arm(lambda j, k, l: (j, k, l) == (3, 3, 4), alpha=4),
    "C_335": _Arm(lambda j, k, l: (j, k, l) == (3, 3, 5), _draft_jkl),
    "C_33l": _Arm(lambda j, k, l: (j, k) == (3, 3) and l >= 6, _draft_jkl),
    "C_344": _Arm(lambda j, k, l: (j, k, l) == (3, 4, 4), _draft_flap, 4),
    "C_34l": _Arm(lambda j, k, l: (j, k) == (3, 4) and l >= 5, _draft_flap, 4),
    "C_355": _Arm(lambda j, k, l: (j, k, l) == (3, 5, 5), _draft_jkl),
    "C_444": _Arm(lambda j, k, l: (j, k, l) == (4, 4, 4), _draft_flap, 4),
    "C_jk5": _Arm(lambda j, k, l: 4 <= j <= k <= 5 and l == 5, _draft_jkl),
    "C_2kl": _Arm(lambda j, k, l: j == 2 and k >= 4 and l >= 6, _draft_2kl),
    "C_jkl": _Arm(lambda j, k, l: j >= 3 and l >= 6, _draft_jkl),
}

def _build(arm: str, spec: ThetaSpec) -> SeedResult:
    """Seed and trace of one table arm on a spec it covers."""
    row = _ARMS[arm]
    j, k, l = spec.as_tuple()
    expected_i = 3
    if arm == "LINE_ROOT":
        gbar = line_graph_root(theta(spec))
        names = {f"c{i}": i for i in range(gbar.n)}
        labels = {}
        expected_i = 2
    elif arm == "G_334":
        gbar = seed_graph_334().complement()
        names = {f"v{i}": i for i in range(gbar.n)}
        labels = {tag: mask_of(vs) for tag, vs in _G334_LABELS.items()}
    else:
        rim, extra, y, off_wheel = row.draft(j, k, l)
        gbar, names = _freeze(rim, extra)
        triples = {**_wheel_side_labels(rim, y), **off_wheel}
        labels = {
            tag: mask_of(names[v] for v in triple) for tag, triple in triples.items()
        }
    trace = ConstructionTrace(
        construction_id=arm,
        params=spec.as_tuple(),
        names=names,
        expected_labels=labels,
        expected_order=spec.order,
        expected_i=expected_i,
        expected_alpha=row.alpha,
    )
    return SeedResult("realizable", gbar, trace)


def applicable_constructions(spec: ThetaSpec) -> list[str]:
    """Construction arms covering a realizable spec, most specific first."""
    jkl = spec.as_tuple()
    if jkl in THETA_EXCEPTIONS:
        return []
    return [arm for arm, row in _ARMS.items() if row.covers(*jkl)]


def theta_specs_up_to(max_order: int) -> list[ThetaSpec]:
    """All valid (j,k,l) with j+k+l-1 <= max_order, exceptions included."""
    _check_int("max_order", max_order, 1)
    out = []
    for j in range(1, max_order + 1):
        for k in range(2 if j == 1 else j, max_order + 1):
            for l in range(k, max_order + 1):
                if j + k + l - 1 > max_order:
                    break
                out.append(ThetaSpec(j, k, l))
    return out


def build_theta_seed_complement(j: int, k: int, l: int) -> SeedResult:
    """Complement seed gbar for theta(j,k,l), built by the first arm of
    applicable_constructions; the caller complements it to get the seed G
    itself.  The seven known exceptions come back as not_realizable.
    ThetaSpec raises InvalidThetaSpecError on a malformed triple and
    CapacityError on one above 64 vertices."""
    spec = ThetaSpec(j, k, l)
    if spec.as_tuple() in THETA_EXCEPTIONS:
        return SeedResult(
            "not_realizable", reason=THETA_EXCEPTIONS[spec.as_tuple()]
        )
    return _build(applicable_constructions(spec)[0], spec)


# -- verification -------------------------------------------------------

@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SeedVerification:
    """The clauses check_seed ran on one seed; ``passed`` is read from them."""
    spec: ThetaSpec
    construction_id: str
    clauses: tuple[ClauseResult, ...]
    gbar: Graph

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed]


def verify_theta_seed(j: int, k: int, l: int) -> SeedVerification:
    """Build the seed for theta(j,k,l) and check it with check_seed.  One
    of the seven exceptions raises InvalidParameterError; a bad triple
    raises as in build_theta_seed_complement."""
    result = build_theta_seed_complement(j, k, l)
    if not result.is_realizable:
        raise InvalidParameterError(
            f"theta({j},{k},{l}) has no seed here: {result.reason}"
        )
    return check_seed(result)


def check_seed(result: SeedResult) -> SeedVerification:
    """Check every promise a built theta seed makes: i value, i-graph
    order, isomorphism to the target theta graph, the labeled i-sets, and
    the alpha-graph behaviour.

    When G is well covered its alpha-sets are its i-sets, so the
    alpha-graph is the i-graph and reuses its result."""
    gbar, trace = result.gbar, result.trace
    spec = ThetaSpec(*trace.params)
    g = gbar.complement()
    report = independence_report(g)
    target = theta(spec)
    clauses = []

    clauses.append(
        ClauseResult(
            "i_value",
            report.i == trace.expected_i,
            f"i(G)={report.i}, expected {trace.expected_i}",
        )
    )
    sg = build_slide_graph(g, list(report.i_sets))
    clauses.append(
        ClauseResult(
            "i_graph_order",
            sg.node_count() == trace.expected_order,
            f"|V(I(G))|={sg.node_count()}, expected {trace.expected_order}",
        )
    )
    i_match = is_isomorphic(sg.skeleton, target)
    clauses.append(ClauseResult("i_graph_isomorphic", i_match, f"skeleton vs {spec}"))
    missing = [
        tag for tag, m in trace.expected_labels.items() if m not in report.i_sets
    ]
    clauses.append(
        ClauseResult(
            "labels_present",
            not missing,
            "all labeled sets found" if not missing else f"missing {missing}",
        )
    )
    clauses.append(
        ClauseResult(
            "alpha_value",
            report.alpha == trace.expected_alpha,
            f"alpha(G)={report.alpha}, expected {trace.expected_alpha}",
        )
    )
    if report.well_covered:
        a_match = i_match
    else:
        a_match = is_isomorphic(
            build_slide_graph(g, list(report.alpha_sets)).skeleton, target)
    if trace.alpha_equal:
        clauses.append(
            ClauseResult(
                "alpha_graph_isomorphic",
                a_match,
                "alpha-graph matches the theta target",
            )
        )
    else:
        clauses.append(
            ClauseResult(
                "alpha_graph_differs",
                not a_match,
                "alpha-graph must not match the i-graph on these arms",
            )
        )
    return SeedVerification(spec, trace.construction_id, tuple(clauses), gbar)


# -- the full realizability table ---------------------------------------

@dataclass(frozen=True)
class TableEntry:
    spec: tuple[int, int, int]
    outcome: str  # "verified" | "exception" | "failed"
    construction_id: str | None
    detail: str


@dataclass(frozen=True)
class TableReport:
    """The table's entries and the scan reports of its exceptions;
    ``passed`` and ``failures`` are read from them."""
    max_total: int
    entries: tuple[TableEntry, ...]
    corroboration: tuple[SearchReport, ...]

    @property
    def failures(self) -> tuple[str, ...]:
        """One line per failed entry, then one per scan that found a witness."""
        return tuple(
            f"{ThetaSpec(*e.spec)}: {e.detail}" for e in self.entries if e.outcome == "failed"
        ) + tuple(
            f"FATAL: witness found for claimed non-realizable target {to_graph6(rep.target)}"
            for rep in self.corroboration if rep.found
        )

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_table(max_total: int, corroborate_max_n: int = 7, jobs: int = 1) -> TableReport:
    """Check the realizability table for every theta graph on at most
    max_total vertices: realizable specs must verify end to end, and each
    exception must come back not-realizable and (when corroborate_max_n > 0)
    survive an exhaustive seed scan with zero witnesses; corroborate_max_n = 0
    skips the scan.  A max_total outside 4..26 (the smallest theta graph,
    θ(1,2,2), has 4 vertices, so a smaller bound would check nothing), a
    corroborate_max_n outside 0.._SCAN_MAX_N, jobs below 1 or any non-int is
    rejected before any work.
    The report's ``passed`` and ``failures`` are read from its entries and scan reports."""
    _check_int("max_total", max_total, 4, 26)
    _check_int("corroborate_max_n", corroborate_max_n, 0, _SCAN_MAX_N)
    _check_int("jobs", jobs, 1)
    entries: list[TableEntry] = []
    exception_targets: list[Graph] = []
    for spec in theta_specs_up_to(max_total):
        j, k, l = spec.as_tuple()
        if spec.as_tuple() in THETA_EXCEPTIONS:
            res = build_theta_seed_complement(j, k, l)
            ok = res.verdict == "not_realizable"
            entries.append(TableEntry(spec.as_tuple(), "exception" if ok else "failed", None,
                                      res.reason if ok else "expected a not-realizable verdict"))
            exception_targets.append(theta(spec))
            continue
        verification = verify_theta_seed(j, k, l)
        detail = "; ".join(f"{c.name}: {c.detail}" for c in verification.failures())
        entries.append(TableEntry(spec.as_tuple(), "verified" if verification.passed else "failed",
                                  verification.construction_id, detail))
    corroboration: tuple[SearchReport, ...] = ()
    if corroborate_max_n > 0 and exception_targets:
        corroboration = tuple(scan_for_targets(exception_targets, corroborate_max_n, jobs=jobs))
    return TableReport(max_total, tuple(entries), corroboration)


# -- deletion surgery ---------------------------------------------------

def apply_deletion(gbar: Graph, t: int) -> Graph:
    """Add one vertex adjacent in gbar to exactly t (in G = complement(gbar),
    adjacent to V(G) - t), removing the i-set t from the i-set family of G
    and changing nothing else, so the i-graph becomes I(G) - t.

    The new vertex lies outside every other maximal independent set and
    extends t to one of size i + 1.  t must be an i-set of G, and at least
    one other i-set must remain.  A t that is not an int, or a bool or
    negative one, raises InvalidParameterError.
    """
    _check_int("t", t, 0)
    if t & ~gbar.full_mask():
        raise DeletionPreconditionError("target uses vertices outside the graph")
    report = independence_report(gbar.complement())
    if t not in report.i_sets:
        raise DeletionPreconditionError("target is not an i-set of the complement")
    if len(report.i_sets) < 2:
        raise DeletionPreconditionError("removing the only i-set would change i(G)")
    apex = 1 << gbar.n
    return Graph._from_rows([row | apex if t >> v & 1 else row
                             for v, row in enumerate(gbar.adj)] + [t])
