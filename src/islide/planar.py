"""Rotation systems, face tracing, and duals of plane embeddings.

A rotation system fixes the cyclic order of neighbors around each vertex.
Faces are the orbits of the dart successor map: after arriving at v along
(u, v), leave along the neighbor that follows u in the rotation at v.
Rotation systems are inputs here; no embedding is ever computed from
scratch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FormatError,
    NonSimpleDualError,
    NotPlanarEmbeddingError,
    RotationError,
)
from .formats import _natural
from .graphs import Graph


@dataclass(frozen=True)
class RotationSystem:
    """order[v] is the cyclic sequence of neighbors around v."""

    order: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> None:
        if len(self.order) != g.n:
            raise RotationError("rotation has wrong number of vertices")
        for v in range(g.n):
            ring = self.order[v]
            if len(ring) != len(set(ring)):
                raise RotationError(f"repeated neighbor in rotation at {v}")
            if set(ring) != set(g.neighbors(v)):
                raise RotationError(f"rotation at {v} does not list its neighbors")


def rotation_from_layout(g: Graph, positions: list[tuple[float, float]]) -> RotationSystem:
    """Rotation induced by straight-line coordinates (counterclockwise order)."""
    if len(positions) != g.n:
        raise RotationError("one position per vertex required")
    rings = []
    for v in range(g.n):
        x0, y0 = positions[v]
        ring = sorted(
            g.neighbors(v),
            key=lambda u: math.atan2(positions[u][1] - y0, positions[u][0] - x0) % (2 * math.pi),
        )
        rings.append(tuple(ring))
    return RotationSystem(tuple(rings))


def trace_faces(g: Graph, rot: RotationSystem) -> list[list[tuple[int, int]]]:
    """Orbits of the dart successor map; every dart lies on exactly one face."""
    rot.validate(g)
    succ_index = {}
    for v in range(g.n):
        ring = rot.order[v]
        for i, u in enumerate(ring):
            succ_index[(v, u)] = ring[(i + 1) % len(ring)]
    faces = []
    seen: set[tuple[int, int]] = set()
    for start in sorted(succ_index):
        if start in seen:
            continue
        face = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            u, v = dart
            dart = (v, succ_index[(v, u)])
        faces.append(face)
    return faces


def planar_dual(g: Graph, rot: RotationSystem) -> Graph:
    """Dual graph of the embedding.

    One dual vertex per face; one dual edge per primal edge, joining the two
    faces it borders.  A rotation whose face count breaks Euler's formula
    (not a sphere embedding of a connected g) is rejected first; duals with
    loops (a bridge) or parallel edges (a 2-edge cut) are rejected next so
    the downstream complement constructions stay within simple graphs.
    """
    faces = trace_faces(g, rot)
    if g.n - g.edge_count() + len(faces) != 2:
        raise NotPlanarEmbeddingError("rotation does not describe a sphere embedding")
    if len(faces) < 2:
        raise NonSimpleDualError("embedding has a single face; dual would be loops only")
    face_of: dict[tuple[int, int], int] = {}
    for fi, face in enumerate(faces):
        for dart in face:
            face_of[dart] = fi
    seen_pairs: set[tuple[int, int]] = set()
    edges = []
    for u in range(g.n):
        for v in g.neighbors(u):
            if u > v:
                continue
            f1 = face_of[(u, v)]
            f2 = face_of[(v, u)]
            if f1 == f2:
                raise NonSimpleDualError(
                    f"edge ({u},{v}) borders one face on both sides (bridge)"
                )
            key = (min(f1, f2), max(f1, f2))
            if key in seen_pairs:
                raise NonSimpleDualError(
                    f"faces {key} share more than one edge (parallel dual edges)"
                )
            seen_pairs.add(key)
            edges.append(key)
    return Graph(len(faces), edges)


# -- rotation file format ----------------------------------------------

def parse_rotation_file(text: str, g: Graph) -> RotationSystem:
    """One line per vertex: ``v: a-b a-c ...`` where each edge is written with
    its smaller endpoint first.  Edges must be incident to v, and every
    vertex is listed exactly once."""
    rings: dict[int, tuple[int, ...]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FormatError(f"expected 'v: edge edge ...', got {line!r}")
        head, _, tail = line.partition(":")
        try:
            v = _natural(head.strip())
        except ValueError as exc:
            raise FormatError(f"bad vertex in {line!r}") from exc
        ring = []
        for token in tail.split():
            a, _, b = token.partition("-")
            try:
                x, y = _natural(a), _natural(b)
            except ValueError as exc:
                raise FormatError(f"bad edge token {token!r}") from exc
            if x > y:
                raise FormatError(f"edge {token!r} must name the smaller endpoint first")
            if v == x:
                ring.append(y)
            elif v == y:
                ring.append(x)
            else:
                raise FormatError(f"edge {token!r} not incident to vertex {v}")
        if v in rings:
            raise FormatError(f"vertex {v} listed twice")
        rings[v] = tuple(ring)
    if sorted(rings) != list(range(g.n)):
        raise FormatError("rotation file must cover every vertex exactly once")
    rot = RotationSystem(tuple(rings[v] for v in range(g.n)))
    rot.validate(g)
    return rot


def rotation_to_file(g: Graph, rot: RotationSystem) -> str:
    lines = []
    for v in range(g.n):
        tokens = " ".join(f"{min(v, u)}-{max(v, u)}" for u in rot.order[v])
        lines.append(f"{v}: {tokens}")
    return "\n".join(lines) + "\n"
