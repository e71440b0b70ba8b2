"""Bounded exhaustive search over labeled graphs for i-graph seeds.

The scan enumerates every labeled simple graph on up to eight vertices by
edge mask (see ``graphs``) and runs the library's own i-graph kernels on
each: ``maximal_independent_sets`` filtered to minimum size, then
``slide_rows`` for the skeleton.  Two exact isomorphism invariants (set
count, then degree sequence) reject most graphs before a canonical-key
check.  One loop consumes the results of chunks of 2^15 masks in order,
through the builtin ``map`` for one job or a process pool's ``imap`` for
more, so witnesses come out in (n, edge mask) order and an early stop ends
after the same chunk whatever the number of jobs.
"""
from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from multiprocessing import Pool

from .errors import InvalidParameterError
from .formats import to_graph6
from .graphs import Graph
from .independence import maximal_independent_sets
from .iso import canonical_key
from .reconfig import slide_rows

_SCAN_MAX_N = 8
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SearchReport:
    target: Graph
    max_n: int
    connected_only: bool
    graphs_examined: int
    witnesses: tuple[Graph, ...]
    elapsed: float

    @property
    def found(self) -> bool:
        return bool(self.witnesses)

    def to_json(self) -> str:
        payload = {
            "target_graph6": to_graph6(self.target),
            "max_n": self.max_n,
            "connected_only": self.connected_only,
            "graphs_examined": self.graphs_examined,
            "witnesses_graph6": [to_graph6(w) for w in self.witnesses],
            "elapsed_seconds": round(self.elapsed, 3),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _labeled_graphs(n: int, start: int, stop: int, connected_only: bool):
    """Yield ``(mask, graph)`` for each edge mask in ``range(start, stop)``."""
    for mask in range(start, stop):
        g = Graph._from_mask(n, mask)
        if connected_only and not g.is_connected():
            continue
        yield mask, g


def enumerate_labeled_graphs(n: int, connected_only: bool = False):
    """Every labeled simple graph on n vertices exactly once, in edge mask
    order.  Hard-capped at n = 8."""
    if not 1 <= n <= _SCAN_MAX_N:
        raise InvalidParameterError(f"n={n} outside 1..{_SCAN_MAX_N}")
    for _, g in _labeled_graphs(n, 0, 1 << (n * (n - 1) // 2), connected_only):
        yield g


def _scan_chunk(args) -> tuple[int, list[tuple[int, int, int]]]:
    n, start, stop, connected_only, prepared = args
    counts = {p[0] for p in prepared}
    examined = 0
    hits: list[tuple[int, int, int]] = []
    for mask, g in _labeled_graphs(n, start, stop, connected_only):
        examined += 1
        sets = maximal_independent_sets(g)
        best = min(map(int.bit_count, sets))
        isets = [s for s in sets if s.bit_count() == best]
        if len(isets) not in counts:
            continue
        skel = Graph._from_rows(slide_rows(g.adj, isets))
        degseq = skel.degree_sequence()
        skel_key = None
        for idx, (order, dseq, ckey) in enumerate(prepared):
            if order != len(isets) or dseq != degseq:
                continue
            if skel_key is None:
                skel_key = canonical_key(skel)
            if skel_key == ckey:
                hits.append((n, mask, idx))
    return examined, hits


def scan_for_targets(
    targets: list[Graph],
    max_n: int,
    connected_only: bool = False,
    jobs: int = 1,
    stop_at_first: bool = False,
) -> list[SearchReport]:
    """One pass over all labeled graphs up to max_n, matched against every
    target at once.  Returns one report per target, witnesses in (n, mask)
    order.  With stop_at_first the scan ends once every target has a witness
    (useful for find-style queries); corroboration scans run to the end."""
    if not 1 <= max_n <= _SCAN_MAX_N:
        raise InvalidParameterError(f"max_n={max_n} outside 1..{_SCAN_MAX_N}")
    if jobs < 1:
        raise InvalidParameterError(f"jobs={jobs} must be at least 1")
    for t in targets:
        if t.n > 30:
            raise InvalidParameterError("target order above 30 is out of scope")
    t0 = time.perf_counter()
    prepared = tuple((t.n, t.degree_sequence(), canonical_key(t)) for t in targets)
    chunks = (
        (n, start, min(start + _CHUNK, 1 << n * (n - 1) // 2), connected_only, prepared)
        for n in range(1, max_n + 1)
        for start in range(0, 1 << n * (n - 1) // 2, _CHUNK)
    )
    examined = 0
    hits: list[tuple[int, int, int]] = []
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for exa, hh in (pool.imap if jobs > 1 else map)(_scan_chunk, chunks):
            examined += exa
            hits.extend(hh)
            if stop_at_first and len({i for _, _, i in hits}) == len(targets):
                break
    elapsed = time.perf_counter() - t0
    reports = []
    for idx, t in enumerate(targets):
        witnesses = tuple(Graph._from_mask(n, mask) for n, mask, i in sorted(hits) if i == idx)
        reports.append(SearchReport(t, max_n, connected_only, examined, witnesses, elapsed))
    return reports


def find_seed(
    target: Graph,
    max_n: int = 7,
    connected_only: bool = False,
    find_all: bool = False,
    jobs: int = 1,
) -> SearchReport:
    """Scan for seeds whose i-graph is isomorphic to the target; the first
    witness in (n, mask) order is kept unless find_all asks for every one."""
    report = scan_for_targets([target], max_n, connected_only=connected_only,
                              jobs=jobs, stop_at_first=not find_all)[0]
    if not find_all:
        report = replace(report, witnesses=report.witnesses[:1])
    return report


def confirm_non_realizable(target: Graph, max_n: int = 7, jobs: int = 1) -> SearchReport:
    """Full scan expecting no witness.  An empty report corroborates the
    claim up to the bound; it is never a proof.  A non-empty witness list for
    a graph believed non-realizable means an implementation bug or a wrong
    claim, and callers treat it as fatal."""
    return scan_for_targets([target], max_n, jobs=jobs, stop_at_first=False)[0]
