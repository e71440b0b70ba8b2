"""Text formats: edge lists, graph6 (one-byte size form), and DOT output.

Edge list format: first line is the vertex count, then one ``u v`` pair per
line, 0-indexed.  graph6 follows the published byte layout with the size
restricted to n <= 62 so the header is always a single byte.  Writing a
larger graph raises CapacityError (an output limit); reading a multi-byte
size form raises FormatError (unsupported input).
"""
from __future__ import annotations

from .errors import CapacityError, FormatError
from .graphs import Graph

_G6_MAX = 62


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    rows = [line.strip() for line in text.splitlines()]
    rows = [line for line in rows if line and not line.startswith("#")]
    if not rows:
        raise FormatError("empty edge list")
    try:
        n = int(rows[0])
    except ValueError as exc:
        raise FormatError(f"first line must be the vertex count: {rows[0]!r}") from exc
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-integer endpoint in {line!r}") from exc
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def to_graph6(g: Graph) -> str:
    if g.n > _G6_MAX:
        raise CapacityError(f"graph6 one-byte form limited to {_G6_MAX} vertices")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            acc = (acc << 1) | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 string")
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if s[0] == "~":
        raise FormatError("multi-byte graph6 sizes not supported (n <= 62 only)")
    n = ord(s[0]) - 63
    if not 1 <= n <= _G6_MAX:
        raise FormatError(f"graph6 size byte out of range: {s[0]!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need}")
    bitstream = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise FormatError(f"invalid graph6 byte {ch!r}")
        bitstream.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bitstream[n * (n - 1) // 2:]):
        raise FormatError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def to_dot(g: Graph, labels: dict[int, str] | None = None, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if labels and v in labels:
            lines.append(f'  {v} [label="{labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
