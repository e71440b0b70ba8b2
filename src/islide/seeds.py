"""Complement-seed constructions for theta graphs, plus deletion of one
i-set, planar seeds, and the verification harness.

Every builder returns the complement seed: a graph gbar whose triangles
that are maximal cliques are the i-sets of G = complement(gbar), adjacent
exactly when they share an edge.  The catalog follows one recipe: a wheel
supplies two of the three pole-to-pole paths of the target theta graph, an
attached path of v-vertices supplies the third, and apex vertices are glued
onto unwanted triangles to knock them out of the i-set family (at the price
of creating a K_4, which bumps alpha to 4 and breaks the alpha-graph
analogue for those arms).

The catalog is one ordered table, ``_ARMS``, most specific arm first.  A row
gives the specs (j, k, l) the arm covers, the draft that names and joins the
vertices of gbar, the rim pair whose triangle with the hub is the far pole Y
(the near pole X is always the triangle w0, w1, w2), the labels of the
triangles along the attached path as a function of l, and alpha of the
seed.  Dispatch (``applicable_constructions``) and the one builder
(``_build``) both read that table, and ``_build`` is the one place a
``ConstructionTrace`` is made.  LINE_ROOT (the complement of a line-graph
root) and G_334 (a fixed 9-vertex seed) are the two rows not drafted from a
wheel.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .errors import (
    DeletionPreconditionError,
    InvalidParameterError,
    InvalidThetaSpecError,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
    NotPlanarEmbeddingError,
)
from .formats import to_graph6
from .graphs import Graph, ThetaSpec, bits, mask_of, theta
from .independence import independence_report
from .iso import canonical_key
from .linegraphs import seed_from_line_graph
from .planar import RotationSystem, planar_dual, trace_faces
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
    verdict: str  # "realizable" | "not_realizable" | "invalid_spec"
    gbar: Graph | None = None
    trace: ConstructionTrace | None = None
    reason: str | None = None

    @property
    def is_realizable(self) -> bool:
        return self.verdict == "realizable"


# -- named drafts ------------------------------------------------------

_NAME_CLASS = {"w": 1, "u": 2, "v": 3, "z": 4}


def _name_key(name: str) -> tuple[int, int]:
    if name == "w0":
        return (0, 0)
    m = re.fullmatch(r"([wuvz])(\d*)('?)", name)
    if not m:
        raise InvalidParameterError(f"unexpected vertex name {name!r}")
    cls = _NAME_CLASS[m.group(1)]
    num = int(m.group(2)) if m.group(2) else 0
    return (cls, 2 * num + (1 if m.group(3) else 0))


class _Draft:
    """Mutable named graph used while assembling a construction; frozen into
    an ordinary Graph with the canonical order hub, rim, subdivision
    vertices, path vertices, apexes, so seed output is byte-stable."""

    def __init__(self):
        self._adj: dict[str, set[str]] = {}
        self.rim: list[str] = []

    def add(self, name: str, *nbrs: str) -> None:
        if name in self._adj:
            raise InvalidParameterError(f"duplicate vertex {name}")
        self._adj[name] = set()
        for other in nbrs:
            self.edge(name, other)

    def edge(self, a: str, b: str) -> None:
        self._adj[a].add(b)
        self._adj[b].add(a)

    def subdivide(self, a: str, b: str, new: str) -> None:
        if b not in self._adj[a]:
            raise InvalidParameterError(f"cannot subdivide missing edge {a}-{b}")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self.add(new, a, b)
        if a in self.rim and b in self.rim:
            ia, ib = self.rim.index(a), self.rim.index(b)
            m = len(self.rim)
            if (ia + 1) % m == ib:
                self.rim.insert(ib, new)
            elif (ib + 1) % m == ia:
                self.rim.insert(ia, new)

    def freeze(self) -> tuple[Graph, dict[str, int]]:
        order = sorted(self._adj, key=_name_key)
        names = {name: i for i, name in enumerate(order)}
        edges = []
        for a, nbrs in self._adj.items():
            for b in nbrs:
                if names[a] < names[b]:
                    edges.append((names[a], names[b]))
        return Graph(len(order), sorted(edges)), names


def _wheel_draft(rim_count: int) -> _Draft:
    d = _Draft()
    d.add("w0")
    d.rim = [f"w{i}" for i in range(1, rim_count + 1)]
    for name in d.rim:
        d.add(name, "w0")
    for a, b in zip(d.rim, d.rim[1:] + d.rim[:1]):
        d.edge(a, b)
    return d


def _chain_subdivide(d: _Draft, anchor: str, other: str, new_names: list[str]) -> None:
    """Repeatedly subdivide the edge between anchor and the newest vertex,
    joining each new vertex to the hub."""
    cur = other
    for name in new_names:
        d.subdivide(anchor, cur, name)
        d.edge("w0", name)
        cur = name


def _wheel_side_labels(
    rim: list[str], y_pair: tuple[str, str]
) -> dict[str, tuple[str, ...]]:
    """Name the wheel triangles: X at w1, w2, Y at y_pair, A_* walking
    forward from X, B_* walking backward."""
    m = len(rim)
    ix = next(
        i for i in range(m) if {rim[i], rim[(i + 1) % m]} == {"w1", "w2"}
    )
    labels: dict[str, tuple[str, ...]] = {
        "X": ("w0", rim[ix], rim[(ix + 1) % m]),
        "Y": ("w0",) + tuple(y_pair),
    }
    want = set(y_pair)
    fwd = []
    i = (ix + 1) % m
    for _ in range(m):
        if {rim[i], rim[(i + 1) % m]} == want:
            break
        fwd.append(("w0", rim[i], rim[(i + 1) % m]))
        i = (i + 1) % m
    else:
        raise InvalidParameterError(f"pair {y_pair} not adjacent on the rim")
    bwd = []
    i = ix
    for _ in range(m):
        if {rim[(i - 1) % m], rim[i % m]} == want:
            break
        bwd.append(("w0", rim[(i - 1) % m], rim[i % m]))
        i -= 1
    for tag, side in (("A", fwd), ("B", bwd)):
        if len(side) == 1:
            labels[tag] = side[0]
        else:
            for idx, triple in enumerate(side, start=1):
                labels[f"{tag}_{idx}"] = triple
    return labels


# -- drafts and path labels of the wheel arms ---------------------------

def _path_names(l: int) -> list[str]:
    """The attached path w2, v1, ..., v{l-3}; index i holds v_i."""
    return ["w2"] + [f"v{i}" for i in range(1, l - 2)]


def _attach_path(d: _Draft, l: int, hook: str, corner: str) -> None:
    """Path w2, v1, ..., v{l-3} with w1 fanned onto v1..v{l-4}, a chord
    from v{l-5} (w2 when l = 5) to v{l-3}, hook joined to the last two path
    vertices and corner to the last one."""
    vs = _path_names(l)
    for prev, name in zip(vs, vs[1:]):
        d.add(name, prev)
    for name in vs[1:l - 3]:
        d.edge("w1", name)
    d.edge(vs[l - 5], vs[l - 3])
    d.edge(hook, vs[l - 4])
    d.edge(hook, vs[l - 3])
    d.edge(corner, vs[l - 3])


def _path_labels(l: int, hook: str, corner: str) -> dict[str, tuple[str, ...]]:
    """The triangles along the path of _attach_path: w1-fanned ones, one on
    three path vertices, then the hand-off through hook to corner."""
    vs = _path_names(l)
    out = {f"D_{i}": ("w1", vs[i - 1], vs[i]) for i in range(1, l - 3)}
    out[f"D_{l - 3}"] = (vs[l - 5], vs[l - 4], vs[l - 3])
    out[f"D_{l - 2}"] = (hook, vs[l - 4], vs[l - 3])
    out[f"D_{l - 1}"] = (corner, hook, vs[l - 3])
    return out


def _draft_1kl(j: int, k: int, l: int) -> _Draft:
    """Wheel on k+1 rim vertices plus the path w1, v1, ..., v{l-2}, w3 with
    every v joined to w2."""
    d = _wheel_draft(k + 1)
    vs = [f"v{i}" for i in range(1, l - 1)]
    for name in vs:
        d.add(name, "w2")
    for a, b in zip(["w1"] + vs, vs + ["w3"]):
        d.edge(a, b)
    return d


def _labels_1kl(l: int) -> dict[str, tuple[str, ...]]:
    path = ["w1"] + [f"v{i}" for i in range(1, l - 1)] + ["w3"]
    return {f"D_{i}": ("w2", path[i - 1], path[i]) for i in range(1, l)}


def _draft_2kl(j: int, k: int, l: int) -> _Draft:
    """Wheel on four rim vertices with the path attached (Y at w3, w4), rim
    edge w1-w4 stretched into w1, w{k+2}, ..., w5, w4, and apex z2 on the
    triangle w2, w3, v2 the path makes when l = 5."""
    d = _wheel_draft(4)
    _attach_path(d, l, "w4", "w3")
    if l == 5:
        d.add("z2", "v2", "w2", "w3")
    _chain_subdivide(d, "w1", "w4", [f"w{i}" for i in range(5, k + 3)])
    return d


def _draft_22l(j: int, k: int, l: int) -> _Draft:
    """The 2,2,l draft: apex z (z1 when l = 5) on the triangle w1, w4,
    v{l-4} that the unstretched rim edge w1-w4 closes."""
    d = _draft_2kl(j, k, l)
    d.add("z1" if l == 5 else "z", "w1", "w4", f"v{l - 4}")
    return d


def _draft_flap(j: int, k: int, l: int) -> _Draft:
    """Wheel on six rim vertices with chord w1-w4, the single path vertex v
    joined to w1..w4 and apex z' on the triangle w0, w1, w4.  Rim edge
    w2-w3 is stretched into w2, u1, ..., u{j-2}, w3 (on 2,4,4 apex z
    kills the triangle v, w2, w3 instead) and rim edge w1-w6 into w1,
    w{l+2}, ..., w7, w6."""
    d = _wheel_draft(6)
    d.edge("w1", "w4")
    d.add("v", "w1", "w2", "w3", "w4")
    d.add("z'", "w0", "w1", "w4")
    if j == 2:
        d.add("z", "v", "w2", "w3")
    _chain_subdivide(d, "w3", "w2", [f"u{i}" for i in range(1, j - 1)])
    _chain_subdivide(d, "w1", "w6", [f"w{i}" for i in range(7, l + 3)])
    return d


def _flap_labels(l: int) -> dict[str, tuple[str, ...]]:
    return {
        "D_1": ("w1", "w2", "v"),
        "D_2": ("w1", "w4", "v"),
        "D_3": ("w3", "w4", "v"),
    }


def _draft_jkl(j: int, k: int, l: int) -> _Draft:
    """Wheel on six rim vertices with the path attached (Y at w4, w5), rim
    edge w1-w6 stretched into w1, w{k+3}, ..., w7, w6 and rim edge w2-w3
    into w2, u{j-3}, ..., u1, w3."""
    d = _wheel_draft(6)
    _attach_path(d, l, "w5", "w4")
    _chain_subdivide(d, "w1", "w6", [f"w{i}" for i in range(7, k + 4)])
    _chain_subdivide(d, "w2", "w3", [f"u{i}" for i in range(1, j - 2)])
    return d


def seed_graph_334() -> Graph:
    """The 9-vertex graph whose i-graph is theta(3,3,4), given directly
    rather than through a wheel complement."""
    v = list(range(9))
    edges = [
        (v[0], v[1]), (v[0], v[2]), (v[0], v[3]), (v[0], v[4]), (v[0], v[7]),
        (v[1], v[2]), (v[2], v[3]), (v[3], v[4]), (v[4], v[1]),
        (v[1], v[5]), (v[2], v[5]),
        (v[3], v[6]), (v[4], v[6]),
        (v[1], v[7]), (v[4], v[7]),
        (v[7], v[8]),
    ]
    return Graph(9, edges)


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
    """One row of the catalog; draft, y_pair and labels are None on the
    two rows not drafted from a wheel."""

    covers: Callable[[int, int, int], bool]
    draft: Callable[[int, int, int], _Draft] | None = None
    y_pair: tuple[str, str] | None = None
    labels: Callable[[int], dict[str, tuple[str, ...]]] | None = None
    alpha: int = 3


_Y34 = ("w3", "w4")
_Y45 = ("w4", "w5")
_PATH34 = partial(_path_labels, hook="w4", corner="w3")
_PATH45 = partial(_path_labels, hook="w5", corner="w4")

# most specific first: applicable_constructions keeps this order and the
# default build takes its first match
_ARMS: dict[str, _Arm] = {
    "LINE_ROOT": _Arm(lambda j, k, l: j == 1 and k == 2, alpha=2),
    "C_1kl": _Arm(lambda j, k, l: j == 1 and k >= 3,
                  _draft_1kl, ("w2", "w3"), _labels_1kl),
    "C_22l_b": _Arm(lambda j, k, l: (j, k, l) == (2, 2, 5),
                    _draft_22l, _Y34, _PATH34, 4),
    "C_22l_a": _Arm(lambda j, k, l: (j, k) == (2, 2) and l >= 6,
                    _draft_22l, _Y34, _PATH34, 4),
    "C_23l_b": _Arm(lambda j, k, l: (j, k, l) == (2, 3, 5),
                    _draft_2kl, _Y34, _PATH34, 4),
    "C_23l_a": _Arm(lambda j, k, l: (j, k) == (2, 3) and l >= 6,
                    _draft_2kl, _Y34, _PATH34),
    "C_244": _Arm(lambda j, k, l: (j, k, l) == (2, 4, 4),
                  _draft_flap, _Y34, _flap_labels, 4),
    "C_2k5": _Arm(lambda j, k, l: j == 2 and k in (4, 5) and l == 5,
                  _draft_2kl, _Y34, _PATH34, 4),
    "G_334": _Arm(lambda j, k, l: (j, k, l) == (3, 3, 4), alpha=4),
    "C_335": _Arm(lambda j, k, l: (j, k, l) == (3, 3, 5),
                  _draft_jkl, _Y45, _PATH45),
    "C_33l": _Arm(lambda j, k, l: (j, k) == (3, 3) and l >= 6,
                  _draft_jkl, _Y45, _PATH45),
    "C_344": _Arm(lambda j, k, l: (j, k, l) == (3, 4, 4),
                  _draft_flap, _Y34, _flap_labels, 4),
    "C_34l": _Arm(lambda j, k, l: (j, k) == (3, 4) and l >= 5,
                  _draft_flap, _Y34, _flap_labels, 4),
    "C_355": _Arm(lambda j, k, l: (j, k, l) == (3, 5, 5),
                  _draft_jkl, _Y45, _PATH45),
    "C_444": _Arm(lambda j, k, l: (j, k, l) == (4, 4, 4),
                  _draft_flap, _Y34, _flap_labels, 4),
    "C_jk5": _Arm(lambda j, k, l: 4 <= j <= k <= 5 and l == 5,
                  _draft_jkl, _Y45, _PATH45),
    "C_2kl": _Arm(lambda j, k, l: j == 2 and k >= 4 and l >= 6,
                  _draft_2kl, _Y34, _PATH34),
    "C_jkl": _Arm(lambda j, k, l: j >= 3 and l >= 6,
                  _draft_jkl, _Y45, _PATH45),
}

def _build(arm: str, spec: ThetaSpec) -> SeedResult:
    """Seed and trace of one table arm on a spec it covers."""
    row = _ARMS[arm]
    j, k, l = spec.as_tuple()
    expected_i = 3
    if arm == "LINE_ROOT":
        gbar = seed_from_line_graph(theta(spec)).complement()
        names = {f"c{i}": i for i in range(gbar.n)}
        labels = {}
        expected_i = 2
    elif arm == "G_334":
        gbar = seed_graph_334().complement()
        names = {f"v{i}": i for i in range(gbar.n)}
        labels = {tag: mask_of(vs) for tag, vs in _G334_LABELS.items()}
    else:
        d = row.draft(j, k, l)
        gbar, names = d.freeze()
        triples = _wheel_side_labels(d.rim, row.y_pair)
        triples.update(row.labels(l))
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
    out = []
    for j in range(1, max_order + 1):
        for k in range(max(j, 2) if j == 1 else j, max_order + 1):
            for l in range(k, max_order + 1):
                if j + k + l - 1 > max_order:
                    break
                out.append(ThetaSpec(j, k, l))
    return out


def build_theta_seed_complement(
    j: int, k: int, l: int, construction: str | None = None
) -> SeedResult:
    """Complement seed gbar for theta(j,k,l); the caller complements it to
    get the seed G itself.  The seven known exceptions come back as
    not_realizable; malformed triples as invalid_spec."""
    try:
        spec = ThetaSpec(j, k, l)
    except InvalidThetaSpecError as exc:
        return SeedResult("invalid_spec", reason=str(exc))
    if spec.as_tuple() in THETA_EXCEPTIONS:
        return SeedResult(
            "not_realizable", reason=THETA_EXCEPTIONS[spec.as_tuple()]
        )
    arms = applicable_constructions(spec)
    if construction is not None:
        if construction not in arms:
            return SeedResult(
                "invalid_spec",
                reason=f"{construction} does not cover {spec}; options: {arms}",
            )
        return _build(construction, spec)
    return _build(arms[0], spec)


# -- verification -------------------------------------------------------

@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SeedVerification:
    spec: ThetaSpec
    construction_id: str
    passed: bool
    clauses: tuple[ClauseResult, ...]
    gbar: Graph

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed]


def verify_theta_seed(
    j: int, k: int, l: int, construction: str | None = None
) -> SeedVerification:
    """Build the seed for theta(j,k,l) and check it with check_seed."""
    result = build_theta_seed_complement(j, k, l, construction=construction)
    if not result.is_realizable:
        raise InvalidParameterError(
            f"theta({j},{k},{l}) has no seed here: {result.reason}"
        )
    return check_seed(result)


def check_seed(result: SeedResult) -> SeedVerification:
    """Check every promise a built theta seed makes: i value, i-graph
    order, isomorphism to the target theta graph, the labeled i-sets, and
    the alpha-graph behaviour.

    Each distinct graph is labelled once: the target's canonical key is
    computed up front, and when G is well covered its alpha-sets are its
    i-sets, so the alpha-graph is the i-graph and reuses its result."""
    gbar, trace = result.gbar, result.trace
    spec = ThetaSpec(*trace.params)
    g = gbar.complement()
    report = independence_report(g)
    target = theta(spec)
    target_key = canonical_key(target)
    target_degrees = target.degree_sequence()

    def matches_target(h: Graph) -> bool:
        # is_isomorphic(h, target) without labelling the target again
        return (h.n == target.n and h.degree_sequence() == target_degrees
                and canonical_key(h) == target_key)

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
    i_match = matches_target(sg.skeleton)
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
        a_match = matches_target(build_slide_graph(g, list(report.alpha_sets)).skeleton)
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
    passed = all(c.passed for c in clauses)
    return SeedVerification(spec, trace.construction_id, passed, tuple(clauses), gbar)


# -- the full realizability table ---------------------------------------

@dataclass(frozen=True)
class TableEntry:
    spec: tuple[int, int, int]
    outcome: str  # "verified" | "exception" | "failed"
    construction_id: str | None
    detail: str


@dataclass(frozen=True)
class TableReport:
    max_total: int
    entries: tuple[TableEntry, ...]
    corroboration: tuple[SearchReport, ...]
    passed: bool
    failures: tuple[str, ...]


def verify_table(max_total: int, corroborate_max_n: int = 7, jobs: int = 1) -> TableReport:
    """Check the realizability table for every theta graph on at most
    max_total vertices: realizable specs must verify end to end, and each
    exception must come back not-realizable and (when corroborate_max_n > 0)
    survive an exhaustive seed scan with zero witnesses.  corroborate_max_n
    = 0 skips the scan; values outside 0.._SCAN_MAX_N are rejected before
    any work, and so is jobs below 1."""
    if not 3 <= max_total <= 26:
        raise InvalidParameterError("max_total must lie in 3..26")
    if not 0 <= corroborate_max_n <= _SCAN_MAX_N:
        raise InvalidParameterError(
            f"corroborate_max_n={corroborate_max_n} outside 0..{_SCAN_MAX_N} (0 skips the scan)"
        )
    if jobs < 1:
        raise InvalidParameterError(f"jobs={jobs} must be at least 1")
    entries: list[TableEntry] = []
    failures: list[str] = []
    exception_targets: list[Graph] = []
    for spec in theta_specs_up_to(max_total):
        j, k, l = spec.as_tuple()
        if spec.as_tuple() in THETA_EXCEPTIONS:
            res = build_theta_seed_complement(j, k, l)
            ok = res.verdict == "not_realizable"
            entries.append(
                TableEntry(spec.as_tuple(), "exception" if ok else "failed", None,
                           res.reason or "")
            )
            if not ok:
                failures.append(f"{spec}: expected a not-realizable verdict")
            if spec.order <= 8:
                exception_targets.append(theta(spec))
            continue
        verification = verify_theta_seed(j, k, l)
        if verification.passed:
            entries.append(
                TableEntry(spec.as_tuple(), "verified", verification.construction_id, "")
            )
        else:
            detail = "; ".join(
                f"{c.name}: {c.detail}" for c in verification.failures()
            )
            entries.append(
                TableEntry(spec.as_tuple(), "failed", verification.construction_id, detail)
            )
            failures.append(f"{spec}: {detail}")
    corroboration: tuple[SearchReport, ...] = ()
    if corroborate_max_n > 0 and exception_targets:
        reports = scan_for_targets(exception_targets, corroborate_max_n, jobs=jobs)
        corroboration = tuple(reports)
        for rep in reports:
            if rep.found:
                failures.append(
                    f"FATAL: witness found for claimed non-realizable target "
                    f"{to_graph6(rep.target)}"
                )
    return TableReport(
        max_total, tuple(entries), corroboration, not failures, tuple(failures)
    )


# -- deletion surgery ---------------------------------------------------

def apply_deletion(gbar: Graph, t: int) -> Graph:
    """Add one vertex adjacent in gbar to exactly t (in G = complement(gbar),
    adjacent to V(G) - t), removing the i-set t from the i-set family of G
    and changing nothing else, so the i-graph becomes I(G) - t.

    The new vertex lies outside every other maximal independent set and
    extends t to one of size i + 1.  t must be an i-set of G, and at least
    one other i-set must remain.
    """
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


# -- planar seeds -------------------------------------------------------

def planar_seed(g: Graph, rot: RotationSystem) -> Graph:
    """Seed H = complement(dual) for a cubic 3-connected bipartite planar g.

    Every face triple meeting at a vertex of g is a triangle of the dual and
    a maximal clique there, so i(H) = alpha(H) = 3 and the i-graph of H
    contains g as an induced subgraph.  The dual is K_4-free with every edge
    on a facial triangle, so the i-sets of H are exactly the dual's
    triangles: the g.n corner triples plus any non-facial extras, which
    apply_deletion can remove.

    Rejects, in this order, a g that is not connected, not cubic or not
    bipartite, and a rotation whose face count breaks Euler's formula (not a
    sphere embedding); planar_dual then rejects a dual that is not simple.
    """
    if not g.is_connected():
        raise NotConnectedError("planar seed needs a connected graph")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubicError("planar seed needs a cubic graph")
    if not g.is_bipartite():
        raise NotBipartiteError("planar seed needs a bipartite graph")
    if g.n - g.edge_count() + len(trace_faces(g, rot)) != 2:
        raise NotPlanarEmbeddingError("rotation does not describe a sphere embedding")
    return planar_dual(g, rot).complement()
