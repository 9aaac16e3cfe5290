"""Constructors for the fixed graphs the recognizer compares against,
plus small parametric families used throughout the tests.

Squared cycles use the vertex set v1..vn mapped to indices 0..n-1, with
vi ~ vj iff |i-j| <= 2 modulo n.
"""

from __future__ import annotations

from ..errors import GraphInputError
from .graph import Graph, edge_key


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def claw() -> Graph:
    """K_{1,3}: centre 0, leaves 1..3."""
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def wheel_5() -> Graph:
    """The 5-wheel: rim cycle 0..4, hub 5 (degree 5)."""
    es = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    return Graph(6, es)


def squared_cycle(n: int) -> Graph:
    if n < 5:
        raise GraphInputError("squared cycle needs n >= 5")
    es = set()
    for i in range(n):
        es.add(edge_key(i, (i + 1) % n))
        es.add(edge_key(i, (i + 2) % n))
    return Graph(n, sorted(es))


def squared_cycle_minus_vertex(n: int) -> Graph:
    g, _ = squared_cycle(n).without_vertex(n - 1)
    return g


def squared_cycle_6_minus_edge() -> Graph:
    """C6^2 minus the edge v1v6 (indices 0 and 5, adjacent since 5 = -1 mod 6)."""
    return squared_cycle(6).without_edge(0, 5)


def theta_graph(len1: int, len2: int, len3: int) -> Graph:
    """Two branch vertices 0 and 1 joined by three internally disjoint
    paths of the given lengths.  At most one length may be 1."""
    lengths = (len1, len2, len3)
    if min(lengths) < 1:
        raise GraphInputError("theta path lengths must be >= 1")
    if sum(1 for l in lengths if l == 1) > 1:
        raise GraphInputError("at most one theta path can be a single edge")
    edges = []
    nxt = 2
    for l in lengths:
        prev = 0
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def prism_graph() -> Graph:
    """Two triangles 0,1,2 and 3,4,5 joined by a perfect matching."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


# catalogue name -> constructor: the forbidden t-minors, the exceptional
# t-perfect graphs, and the claw
_NAMED = {
    "K4": lambda: complete_graph(4),
    "W5": wheel_5,
    "C2(7)": lambda: squared_cycle(7),
    "C2(10)": lambda: squared_cycle(10),
    "C2(6)-minus-edge-v1v6": squared_cycle_6_minus_edge,
    "C2(7)-minus-vertex": lambda: squared_cycle_minus_vertex(7),
    "C2(10)-minus-vertex": lambda: squared_cycle_minus_vertex(10),
    "claw": claw,
}

#: The named corpus, in catalogue order.
NAMED_CATALOGUE = tuple(_NAMED)


def make_named(name: str) -> Graph:
    """Construct a graph by its `NAMED_CATALOGUE` name."""
    try:
        make = _NAMED[name]
    except KeyError:
        raise GraphInputError(f"unknown named graph {name!r}") from None
    return make()
