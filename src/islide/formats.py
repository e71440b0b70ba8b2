"""Text formats: edge lists, graph6, and DOT output.

Edge list format: first line is the vertex count, then one ``u v`` pair per
line, 0-indexed.  graph6 follows the published byte layout: the size is one
byte for n <= 62 and ``~`` plus three 6-bit bytes for 63 <= n <= 258047.
Writing a larger graph raises CapacityError (an output limit).  Reading
raises FormatError on the 8-byte ``~~`` size form, on a 4-byte form for
n <= 62 (non-canonical), and on more than MAX_VERTICES vertices, as an edge
list does.
"""
from __future__ import annotations

from .errors import CapacityError, FormatError
from .graphs import MAX_VERTICES, Graph

_G6_SHORT = 62
_G6_MAX = 258047


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
        raise CapacityError(f"graph6 4-byte size form limited to {_G6_MAX} vertices")
    if g.n <= _G6_SHORT:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
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
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise FormatError("empty graph6 string")
    bad = [ch for ch in s if not "?" <= ch <= "~"]
    if bad:
        raise FormatError(f"invalid graph6 byte {bad[0]!r}")
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    elif vals[1:2] == [63]:
        raise FormatError("graph6 8-byte size form not supported")
    elif len(vals) < 4:
        raise FormatError(f"truncated graph6 4-byte size form: {s!r}")
    else:
        n, body = vals[1] << 12 | vals[2] << 6 | vals[3], vals[4:]
        if n <= _G6_SHORT:
            raise FormatError(f"non-canonical graph6 4-byte size form for n={n}")
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need}")
    bitstream = [val >> k & 1 for val in body for k in range(5, -1, -1)]
    if any(bitstream[n * (n - 1) // 2:]):
        raise FormatError("graph6 padding bits must be zero")
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return Graph(n, [pair for pair, bit in zip(pairs, bitstream) if bit])


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
