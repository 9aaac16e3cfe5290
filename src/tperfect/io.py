"""Graph ingestion and serialization: graph6 and edge-list formats.

graph6 is the standard bit-packed upper-triangle encoding (column by
column), used because the exceptional-graph fixtures and external graph
catalogues ship in it; edge lists ("n m" header, one "u v" pair per line)
are kept for human authoring.
"""

from __future__ import annotations

from math import isqrt

from .core.graph import Graph
from .errors import GraphInputError

# graph6 character -> its six bits, most significant first
_SIX_BITS = {chr(v + 63): format(v, "06b") for v in range(64)}


def _encode_n(n: int) -> str:
    if n < 0:
        raise GraphInputError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise GraphInputError("graph too large for this graph6 writer")


def _decode_n(s: str) -> tuple[int, int]:
    """Returns (n, number of header characters consumed)."""
    if not s:
        raise GraphInputError("empty graph6 payload")
    c = ord(s[0]) - 63
    if c < 0 or c > 63:
        raise GraphInputError(f"bad graph6 header byte {s[0]!r}")
    if s[0] != "~":
        return c, 1
    if len(s) >= 4 and s[1] != "~":
        vals = [ord(ch) - 63 for ch in s[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise GraphInputError("bad graph6 extended header")
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    raise GraphInputError("unsupported graph6 size header")


def graph_to_graph6(g: Graph) -> str:
    head = _encode_n(g.n)
    total = g.n * (g.n - 1) // 2
    bits = ["0"] * (total + -total % 6)
    for u, v in g.edges:
        bits[v * (v - 1) // 2 + u] = "1"
    body = "".join(bits)
    return head + "".join(chr(int(body[i : i + 6], 2) + 63) for i in range(0, len(body), 6))


def graph6_to_graph(payload: str) -> Graph:
    payload = payload.strip()
    if payload.startswith(">>graph6<<"):
        payload = payload[len(">>graph6<<") :]
    n, consumed = _decode_n(payload)
    body = payload[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphInputError(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    try:
        bits = "".join([_SIX_BITS[ch] for ch in body])
    except KeyError as exc:
        raise GraphInputError(f"bad graph6 byte {exc.args[0]!r}") from None
    total = n * (n - 1) // 2
    if "1" in bits[total:]:
        raise GraphInputError("nonzero padding bits in graph6 payload")
    # bit i is the upper-triangle cell (row, col) with i = col(col-1)/2 + row
    edges = []
    i = bits.find("1")
    while i != -1:
        col = (isqrt(8 * i + 1) + 1) // 2
        edges.append((i - col * (col - 1) // 2, col))
        i = bits.find("1", i + 1)
    edges.sort()
    return Graph._trusted(n, edges)


def graph_to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def edge_list_to_graph(payload: str) -> Graph:
    rows = [ln.strip() for ln in payload.splitlines() if ln.strip()]
    if not rows:
        raise GraphInputError("empty edge-list payload")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphInputError(f"malformed header {rows[0]!r} (expected 'n m')")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphInputError(f"malformed header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphInputError(f"malformed edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)  # range/loop/duplicate checks live in Graph
