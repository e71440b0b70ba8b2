"""Rotation systems, face tracing, duals of plane embeddings, and the
planar seed built from a dual.

A rotation system fixes the cyclic order of neighbors around each vertex.
Faces are the orbits of the dart successor map: after arriving at v along
(u, v), leave along the neighbor that follows u in the rotation at v.
Rotation systems are inputs here; no embedding is ever computed from
scratch.  ``planar_seed`` makes all five rejections of the planar-seed
route: an input that is not connected, not cubic or not bipartite, a
rotation that is not a sphere embedding, and a dual that is not simple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FormatError,
    NonSimpleDualError,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
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
    the downstream complement constructions stay within simple graphs.  A
    sphere embedding with one face is a tree with an edge, and every edge
    of it is a bridge.
    """
    faces = trace_faces(g, rot)
    if g.n - g.edge_count() + len(faces) != 2:
        raise NotPlanarEmbeddingError("rotation does not describe a sphere embedding")
    face_of: dict[tuple[int, int], int] = {}
    for fi, face in enumerate(faces):
        for dart in face:
            face_of[dart] = fi
    pairs: set[tuple[int, int]] = set()
    for u, v in g.edges():
        f1 = face_of[(u, v)]
        f2 = face_of[(v, u)]
        if f1 == f2:
            raise NonSimpleDualError(
                f"edge ({u},{v}) borders one face on both sides (bridge)"
            )
        key = (min(f1, f2), max(f1, f2))
        if key in pairs:
            raise NonSimpleDualError(
                f"faces {key} share more than one edge (parallel dual edges)"
            )
        pairs.add(key)
    return Graph(len(faces), pairs)


def planar_seed(g: Graph, rot: RotationSystem) -> Graph:
    """Seed H = complement(dual) for a cubic 3-connected bipartite planar g.

    Every face triple meeting at a vertex of g is a triangle of the dual and
    a maximal clique there, so i(H) = alpha(H) = 3 and the i-graph of H
    contains g as an induced subgraph.  The dual is K_4-free with every edge
    on a facial triangle, so the i-sets of H are exactly the dual's
    triangles: the g.n corner triples plus any non-facial extras, which
    seeds.apply_deletion can remove.

    Rejects, in this order, a g that is not connected, not cubic or not
    bipartite, a rotation that is not a sphere embedding, and a dual that
    is not simple.
    """
    if not g.is_connected():
        raise NotConnectedError("planar seed needs a connected graph")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubicError("planar seed needs a cubic graph")
    if not g.is_bipartite():
        raise NotBipartiteError("planar seed needs a bipartite graph")
    return planar_dual(g, rot).complement()


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
    try:
        rot.validate(g)
    except RotationError as exc:
        raise FormatError(str(exc)) from exc
    return rot


def rotation_to_file(g: Graph, rot: RotationSystem) -> str:
    lines = []
    for v in range(g.n):
        tokens = " ".join(f"{min(v, u)}-{max(v, u)}" for u in rot.order[v])
        lines.append(f"{v}: {tokens}")
    return "\n".join(lines) + "\n"
