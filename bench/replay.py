"""Spans for the traced replay, and the per-layer metrics computed from them.

A span records its name, start, end, parent span and operation id.  The
part of the name before the first dot is the layer: one module of
``src/islide`` (``search``, ``independence``, ``reconfig``, ``iso``,
``seeds``, ``graphs``, ``linegraphs``, ``planar``) or ``bench`` for the
benchmark's own code.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans add up to the traced wall time: the summed
durations of the top-level ``bench.op`` spans.
"""
from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

# Construction arms that build_theta_seed_complement picks by default for
# theta specs of order <= 26; each gets a seeds.arm_s.<id> metric.
ARMS = (
    "LINE_ROOT", "C_1kl", "C_22l_a", "C_22l_b", "C_23l_a", "C_23l_b", "C_244",
    "C_2k5", "C_2kl", "G_334", "C_335", "C_33l", "C_344", "C_34l", "C_355",
    "C_444", "C_jk5", "C_jkl",
)

# calls a traced run times once each (workloads.probe_calls)
PROBES = (
    "iso.probe_ms.Q3", "iso.probe_ms.Q4", "iso.probe_ms.K44", "iso.probe_ms.K333",
    "iso.probe_ms.4C4", "reconfig.probe_ms.8K3",
)

# name -> unit; run.py reports exactly these with --trace 1
LAYER_UNITS = {
    "search.graphs": "count",
    "search.enumerate_s": "s",
    "search.count_pass_ratio": "ratio",
    "search.degree_pass_ratio": "ratio",
    "search.hits": "count",
    "independence.calls": "count",
    "independence.s": "s",
    "independence.call_p50_us": "us",
    "independence.sets": "count",
    "independence.kept_ratio": "ratio",
    "reconfig.calls": "count",
    "reconfig.s": "s",
    "reconfig.nodes": "count",
    "reconfig.edges": "count",
    "reconfig.structural_s": "s",
    "iso.calls": "count",
    "iso.s": "s",
    "iso.call_p50_us": "us",
    "iso.call_max_ms": "ms",
    "iso.contains_induced_s": "s",
    **dict.fromkeys(PROBES, "ms"),
    "seeds.builds": "count",
    "seeds.build_s": "s",
    **{f"seeds.arm_s.{a}": "s" for a in ARMS},
    "graphs.s": "s",
    "linegraphs.s": "s",
    "planar.s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Records one span per library call made through ``call``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, tag]
        self.counts: Counter = Counter()
        self.op = -1
        self._open = [-1]
        self._last = -1

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1], self.op, None]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            self._last = idx

    def tag(self, value) -> None:
        """Attach a label (a construction arm) to the span closed last."""
        self.spans[self._last][5] = value

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] += k

    def write(self, path, stamp: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"stamp": stamp,
                       "fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Same interface, no recording: the untraced replay that
    ``trace.overhead`` is measured against."""

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def tag(self, value) -> None:
        pass

    def count(self, key: str, k: int = 1) -> None:
        pass


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(tracer: Tracer, untraced_wall: float, probe_ms: dict) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    arm_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _, tag), s in zip(spans, own):
        layer = name.split(".", 1)[0]
        by_layer[layer] += s
        by_name[name] += end - start
        calls[name] += 1
        durations[layer].append(end - start)
        if tag is not None:
            arm_s[tag] += end - start
    c = tracer.counts
    wall = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    def p50(layer):
        return statistics.median(durations[layer]) if durations[layer] else 0.0

    out = {
        "search.graphs": c["search.graphs"],
        "search.enumerate_s": by_layer["search"],
        "search.count_pass_ratio": ratio("search.count_pass", "search.graphs"),
        "search.degree_pass_ratio": ratio("search.degree_pass", "search.count_pass"),
        "search.hits": c["search.hits"],
        "independence.calls": len(durations["independence"]),
        "independence.s": by_layer["independence"],
        "independence.call_p50_us": p50("independence") * 1e6,
        "independence.sets": c["independence.sets"],
        "independence.kept_ratio": ratio("independence.kept", "independence.sets"),
        "reconfig.calls": len(durations["reconfig"]),
        "reconfig.s": by_layer["reconfig"],
        "reconfig.nodes": c["reconfig.nodes"],
        "reconfig.edges": c["reconfig.edges"],
        "reconfig.structural_s": by_name["reconfig.structural_violations"],
        "iso.calls": len(durations["iso"]),
        "iso.s": by_layer["iso"],
        "iso.call_p50_us": p50("iso") * 1e6,
        "iso.call_max_ms": max(durations["iso"], default=0.0) * 1e3,
        "iso.contains_induced_s": by_name["iso.contains_induced"],
        **{p: probe_ms[p] for p in PROBES},
        "seeds.builds": calls["seeds.build_theta_seed_complement"],
        "seeds.build_s": by_layer["seeds"],
        **{f"seeds.arm_s.{a}": arm_s[a] for a in ARMS},
        "graphs.s": by_layer["graphs"],
        "linegraphs.s": by_layer["linegraphs"],
        "planar.s": by_layer["planar"],
        "bench.self_s": by_layer["bench"],
        "trace.wall_s": wall,
        "trace.overhead": wall / untraced_wall,
    }
    return out
