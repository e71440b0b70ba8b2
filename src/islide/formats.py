"""Text formats: edge lists, graph6, and DOT output.

Edge list format: first line is the vertex count, then one ``u v`` pair per
line, 0-indexed.  graph6 follows the published byte layout: the size is one
byte for n <= 62 and ``~`` plus three 6-bit bytes for 63 <= n <= 258047, then
the edge mask (see ``graphs``) in 6-bit groups, pair (0,1) first.  Writing a
larger graph raises CapacityError (an output limit).  Reading raises
FormatError on the 8-byte ``~~`` size form, on a 4-byte form for n <= 62
(non-canonical), and on more than MAX_VERTICES vertices, as an edge list does.
"""
from __future__ import annotations

from .errors import CapacityError, FormatError
from .graphs import MAX_VERTICES, Graph

_G6_SHORT = 62
_G6_MAX = 258047


def _natural(token: str) -> int:
    """int(token) for a token of ASCII digits only; int() alone would also
    read a sign, an underscore or a non-ASCII digit.  Raises ValueError."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a natural number: {token!r}")
    return int(token)


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
        n = _natural(rows[0])
    except ValueError as exc:
        raise FormatError(f"first line must be the vertex count: {rows[0]!r}") from exc
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = _natural(parts[0]), _natural(parts[1])
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
    size = [g.n] if g.n <= _G6_SHORT else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    nbytes = (g.n * (g.n - 1) // 2 + 5) // 6
    stream = format(g._edge_mask(), f"0{6 * nbytes}b")[::-1]
    body = [int(stream[i:i + 6], 2) for i in range(0, 6 * nbytes, 6)]
    return "".join(chr(x + 63) for x in size + body)


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
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need}")
    stream = "".join(format(val, "06b") for val in body)
    if "1" in stream[npairs:]:
        raise FormatError("graph6 padding bits must be zero")
    return Graph._from_mask(n, int(stream[:npairs][::-1] or "0", 2))


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
