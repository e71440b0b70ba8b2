"""Bounded exhaustive search over isomorphism classes for i-graph seeds.

A seed's i-graph depends only on its isomorphism class, so the scan visits
each class of graphs on up to eight vertices once.  Level 1 is the single
vertex; level n is the set of canonical edge masks (see ``iso``) of the
one-vertex extensions of the level-(n-1) classes whose new vertex has
maximum degree.  Every graph G is G - v plus v for a vertex v of maximum
degree, and the class of G - v is in the level below, so the levels hold
exactly the classes (McKay's canonical deletion, J. Algorithms 1998).  An
automorphism of the parent maps the extension by a neighbourhood onto the
extension by its image, and it keeps the new vertex's degree maximum, so
the neighbourhoods are split into orbits under the automorphisms that
labelling the parent yields, and one per orbit is labelled.  The connected
classes are the connected members of each level, since deleting a
maximum-degree vertex can disconnect a graph.  The levels are a fixed
table, so ``_LEVELS`` keeps each complete level built in the process
(0.54 MB through n = 8), and a later walk reads them: the first walk in a
process pays for the levels to its bound, and a walk within what is stored
labels nothing.  Each class is tested once.  Its i-graph has one node per
i-set, so it can match only a target with that many vertices: the scan
counts the class's i-sets from the same helper ``i_graph`` uses, builds the
slide graph only when some target has that order, and ``is_isomorphic``
matches the skeleton against those targets, so canonical labelling only
builds the levels.  Both stages run through the builtin ``map`` for one job
or a process pool's ``imap`` in batches of ``_CHUNK`` items for more, per
parent to build a level and per class to test it.  The pool starts only
when a level the scan needs is not stored yet: testing the classes of a
stored level costs less than starting the workers.  Levels are sorted and
``imap`` keeps their order, so witnesses come out in (n, canonical edge
mask) order, and an early stop ends after the same level whatever the
number of jobs.

``scan_for_targets`` is the one entry point.  A full scan corroborates, up
to the bound, that each of its targets has no seed; ``stop_at_first`` turns
it into a seed search.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from .errors import InvalidParameterError
from .formats import to_graph6
from .graphs import Graph, _check_int, bits, mask_of
from .independence import _minimum_sets, maximal_independent_sets
from .iso import _canonical, canonical_key, is_isomorphic
from .reconfig import build_slide_graph

_SCAN_MAX_N = 8
# items per message to a pool worker: testing a class takes well under a
# millisecond, so items sent one by one keep the workers waiting on messages
_CHUNK = 64
# the complete class levels built so far in this process: level n's sorted
# canonical edge masks under key n
_LEVELS: dict[int, tuple[int, ...]] = {}


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


def enumerate_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices exactly once, in edge mask
    order.  Hard-capped at n = 8."""
    _check_int("n", n, 1, _SCAN_MAX_N)
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph._from_mask(n, mask)


def _extensions(args) -> set[int]:
    """Canonical edge masks of the one-vertex extensions of the graph with
    edge mask ``mask`` on n vertices in which the new vertex has maximum
    degree: at least the top degree, and above it when it touches a vertex
    of top degree.  Only the first neighbourhood of each orbit of the
    parent's automorphisms is labelled (see the module docstring)."""
    n, mask = args
    parent = Graph._from_mask(n, mask)
    degrees = [row.bit_count() for row in parent.adj]
    top = max(degrees)
    busiest = mask_of(v for v, d in enumerate(degrees) if d == top)
    # images[i][v] is the bit of the image of vertex v under generator i
    images = [[1 << w for w in gamma] for gamma in _canonical(parent)[2]]
    # the new vertex n takes the edge mask bits n(n-1)/2 .. n(n+1)/2 - 1
    shift = n * (n - 1) // 2
    keys = set()
    seen = set()
    for nbrs in range(1 << n):
        size = nbrs.bit_count()
        if nbrs in seen or size < top or size == top and nbrs & busiest:
            continue
        orbit = [nbrs]
        seen.add(nbrs)
        for x in orbit:
            for image in images:
                y = sum(image[v] for v in bits(x))
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        keys.add(canonical_key(Graph._from_mask(n + 1, mask | nbrs << shift))[1])
    return keys


def _class_levels(max_n: int, connected_only: bool, run=map):
    """Yield ``(n, level)`` for n = 1 .. max_n, where level is a fresh sorted
    list of the canonical edge masks of the classes on n vertices;
    connected_only keeps the connected ones.  Levels are read from
    ``_LEVELS``; one it does not hold yet is built when it is asked for,
    whole, with ``run`` mapping ``_extensions`` over the parents, and stored
    unless a level n was stored meanwhile (``setdefault`` is one step, so a
    level built twice is stored once)."""
    for n in range(1, max_n + 1):
        if n not in _LEVELS:
            level = (sorted(set().union(*run(_extensions, ((n - 1, m) for m in _LEVELS[n - 1]))))
                     if n > 1 else [0])
            _LEVELS.setdefault(n, tuple(level))
        level = _LEVELS[n]
        yield n, ([m for m in level if Graph._from_mask(n, m).is_connected()]
                  if connected_only else list(level))


def _matches(by_order: dict[int, list[tuple[int, Graph]]], args) -> list[int]:
    """Indices, ascending, of the targets isomorphic to the i-graph skeleton
    of the graph with edge mask ``mask`` on n vertices.  ``by_order`` maps a
    target order to that order's ``(index, target)`` pairs; the slide graph
    is built only when the graph's i-set count is one of its keys."""
    n, mask = args
    g = Graph._from_mask(n, mask)
    i_sets = _minimum_sets(maximal_independent_sets(g))
    candidates = by_order.get(len(i_sets))
    if candidates is None:
        return []
    skeleton = build_slide_graph(g, i_sets).skeleton
    return [idx for idx, t in candidates if is_isomorphic(skeleton, t)]


def scan_for_targets(
    targets: list[Graph],
    max_n: int,
    connected_only: bool = False,
    jobs: int = 1,
    stop_at_first: bool = False,
) -> list[SearchReport]:
    """One pass over the isomorphism classes of graphs on up to max_n
    vertices, matched against every target at once: a class whose i-set
    count is some target's order has its i-graph built, and
    ``is_isomorphic`` compares the skeleton with each target of that order;
    the other classes build none.  Returns one
    report per target; each witness is a canonical graph, one per class, in
    (n, canonical edge mask) order.  By default the scan runs to max_n and
    keeps every witness: an empty report corroborates a non-realizability
    claim up to the bound, and is never a proof.  With stop_at_first the scan ends
    after the first level at which every target has a witness, and each
    report keeps only its target's first witness.  The output does not
    depend on ``jobs``.  More than one job starts a pool only when some level
    up to max_n is not stored yet, and a ``jobs`` above the CPU count starts
    one worker per CPU.  A non-int or out-of-range max_n or jobs is rejected
    before any work."""
    _check_int("max_n", max_n, 1, _SCAN_MAX_N)
    _check_int("jobs", jobs, 1)
    for t in targets:
        if t.n > 30:
            raise InvalidParameterError("target order above 30 is out of scope")
    t0 = time.perf_counter()
    by_order: dict[int, list[tuple[int, Graph]]] = {}
    for idx, t in enumerate(targets):
        by_order.setdefault(t.n, []).append((idx, t))
    match = partial(_matches, by_order)
    examined = 0
    found: list[list[Graph]] = [[] for _ in targets]
    parallel = jobs > 1 and not all(n in _LEVELS for n in range(1, max_n + 1))
    if parallel:
        # imported here so that importing islide does not load multiprocessing
        from multiprocessing import Pool
    with Pool(min(jobs, os.cpu_count() or 1)) if parallel else nullcontext() as pool:
        run = partial(pool.imap, chunksize=_CHUNK) if parallel else map
        for n, level in _class_levels(max_n, connected_only, run):
            for mask, hits in zip(level, run(match, ((n, m) for m in level))):
                for idx in hits:
                    found[idx].append(Graph._from_mask(n, mask))
            examined += len(level)
            if stop_at_first and all(found):
                break
    elapsed = time.perf_counter() - t0
    return [SearchReport(t, max_n, connected_only, examined,
                         tuple(w[:1] if stop_at_first else w), elapsed)
            for t, w in zip(targets, found)]

