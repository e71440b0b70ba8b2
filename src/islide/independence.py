"""Maximal independent sets, i(G), alpha(G), and the i-set / alpha-set families.

Enumeration branches on the lowest-index vertex not yet dominated: every
maximal independent set must pick a dominator from that vertex's closed
neighborhood.  Candidates already tried at a branch point are banned deeper
in the tree, so each set is produced exactly once.  Output-sensitive;
pending branches wait on an explicit stack.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SetCountCapError
from .graphs import Graph, _check_int

DEFAULT_SET_CAP = 10**6


def maximal_independent_sets(g: Graph, cap: int = DEFAULT_SET_CAP) -> list[int]:
    """All maximal independent sets of g as bitmasks, in discovery order
    (deterministic).  Raises SetCountCapError beyond ``cap`` sets, and
    InvalidParameterError unless ``cap`` is an int of at least 1."""
    _check_int("cap", cap, 1)
    full = (1 << g.n) - 1
    adj = g.adj
    closed = [adj[v] | (1 << v) for v in range(g.n)]
    out: list[int] = []
    stack = [(0, 0, 0)]
    while stack:
        chosen, dominated, banned = stack.pop()
        v = ~dominated & full
        v = (v & -v).bit_length() - 1
        cands = closed[v] & ~dominated & ~banned
        while cands:
            low = cands & -cands
            dom = dominated | closed[low.bit_length() - 1]
            if dom != full:
                stack.append((chosen | low, dom, banned))
            elif len(out) < cap:
                out.append(chosen | low)
            else:
                raise SetCountCapError(f"more than {cap} maximal independent sets")
            banned |= low
            cands ^= low
    return out


@dataclass(frozen=True)
class IndependenceReport:
    """The i-set and alpha-set families (sorted bitmasks); i(G) and
    alpha(G) are read from them."""

    i_sets: tuple[int, ...]
    alpha_sets: tuple[int, ...]
    total_mis_count: int

    @property
    def i(self) -> int:
        return self.i_sets[0].bit_count()

    @property
    def alpha(self) -> int:
        return self.alpha_sets[0].bit_count()

    @property
    def well_covered(self) -> bool:
        return self.i == self.alpha


def _minimum_sets(sets: list[int]) -> list[int]:
    """The sets of least size in ``sets``, sorted ascending: the i-sets of
    a graph when ``sets`` are its maximal independent sets."""
    i = min(map(int.bit_count, sets))
    return sorted(s for s in sets if s.bit_count() == i)


def independence_report(g: Graph, cap: int = DEFAULT_SET_CAP) -> IndependenceReport:
    sets = maximal_independent_sets(g, cap=cap)
    i_sets = _minimum_sets(sets)
    alpha = max(map(int.bit_count, sets))
    alpha_sets = tuple(sorted(s for s in sets if s.bit_count() == alpha))
    return IndependenceReport(tuple(i_sets), alpha_sets, len(sets))

