"""Unit-capacity flows: minimum edge cuts, edge- and vertex-disjoint paths.

Every cut in the recognition pipeline has at most five edges, so plain
BFS augmentation (Edmonds-Karp) is more than enough.  One routine,
`_max_flow`, augments on the graph's own sorted neighbour lists and
builds no arc network: it keeps a flow per directed edge, and for
vertex-disjoint paths a through-flow per vertex.  Each search visits a
vertex's residual moves in a fixed order (its internal arc first, then
its neighbours in ascending order, then its terminal arc), so paths and
cuts are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import GraphInputError, check
from .graph import Edge, Graph


@dataclass(frozen=True)
class EdgeCut:
    """An exact edge cut E(X, Y): `edges` are precisely the edges of the
    host graph with one endpoint in each side."""

    edges: frozenset[Edge]
    side_a: frozenset[int]
    side_b: frozenset[int]

    def validate_against(self, g: Graph) -> None:
        check(
            self.side_a | self.side_b == set(range(g.n))
            and not (self.side_a & self.side_b),
            "cut sides must partition the vertex set",
        )
        crossing = {
            e for e in g.edges if (e[0] in self.side_a) != (e[1] in self.side_a)
        }
        check(crossing == set(self.edges), "cut edges must equal the crossing set")


def exact_cut(g: Graph, side_a: Iterable[int]) -> EdgeCut:
    """The cut E(X, V-X) for a given side X."""
    a = frozenset(side_a)
    b = frozenset(range(g.n)) - a
    edges = frozenset(e for e in g.edges if (e[0] in a) != (e[1] in a))
    return EdgeCut(edges, a, b)


def _walk_paths(
    n: int, used: set[int], start_credits: list[tuple[int, int]]
) -> list[list[int]]:
    """Consume the flow edges u -> w (u * n + w in `used`) into
    source->sink walks, then erase loops.

    A walk leaves each vertex along its least unused flow edge and ends
    when none is left (only happens at sinks, by conservation).
    """
    out: dict[int, list[int]] = {}
    for key in sorted(used):
        out.setdefault(key // n, []).append(key % n)
    paths = []
    for start, credit in start_credits:
        for _ in range(credit):
            walk = [start]
            x = start
            while out.get(x):
                x = out[x].pop(0)
                walk.append(x)
            path: list[int] = []
            pos: dict[int, int] = {}
            for v in walk:
                if v in pos:
                    for w in path[pos[v] + 1:]:
                        del pos[w]
                    del path[pos[v] + 1:]
                else:
                    pos[v] = len(path)
                    path.append(v)
            paths.append(path)
    return paths


def _terminals(sources: Iterable[int], sinks: Iterable[int]) -> tuple[set[int], set[int]]:
    src, snk = set(sources), set(sinks)
    if not src or not snk or src & snk:
        raise GraphInputError("sources and sinks must be disjoint and nonempty")
    return src, snk


def _edge_search(g: Graph, src: set[int], snk: set[int], used: set[int]):
    """BFS from the sources over residual edges: u -> v is residual unless
    it carries the unit of uv.  Returns (the first sink reached, parents);
    with no sink reached, the parents mark the residual source side."""
    n, nbrs = g.n, g._nbrs
    parent = [-1] * n
    queue = sorted(src)
    for x in queue:
        parent[x] = x
    for x in queue:
        for y in nbrs[x]:
            if parent[y] < 0 and x * n + y not in used:
                parent[y] = x
                if y in snk:
                    return y, parent
                queue.append(y)
    return None, parent


def _split_search(g, src, snk, caps, used, through):
    """BFS over the split vertices v_in = 2v and v_out = 2v + 1, whose
    internal arc carries through[v] units.  Terminals are sealed: no arc
    leaves a sink, and no path enters a source, whose v_in is searched
    first unless its capacity is used up, and then leads nowhere.
    Returns (a sink's v_out, parents)."""
    n, nbrs = g.n, g._nbrs
    src_cap, snk_cap = caps
    parent = [-1] * (2 * n)
    queue = [2 * x for x in sorted(src) if through[x] < src_cap]
    for node in queue:
        parent[node] = node
    for node in queue:
        v = node >> 1
        if node & 1:  # v_out: back into v_in, then out along free edges
            if through[v] and parent[node - 1] < 0:
                parent[node - 1] = node
                queue.append(node - 1)
            if v not in snk:
                for w in nbrs[v]:
                    if parent[2 * w] < 0 and v * n + w not in used:
                        parent[2 * w] = node
                        queue.append(2 * w)
        else:  # v_in: through v, then back along edges carrying flow into v
            cap = src_cap if v in src else snk_cap if v in snk else 1
            if through[v] < cap and parent[node + 1] < 0:
                parent[node + 1] = node
                if v in snk:
                    return node + 1, parent
                queue.append(node + 1)
            for w in nbrs[v]:
                if parent[2 * w + 1] < 0 and w * n + v in used:
                    parent[2 * w + 1] = node
                    queue.append(2 * w + 1)
    return None, parent


def _max_flow(g: Graph, src: set[int], snk: set[int], k: int, caps=None):
    """Augment up to k unit paths from src to snk (Edmonds-Karp) on g's
    own sorted adjacency; returns (value, used, through, parents).

    `used` holds each directed edge u -> v carrying a unit as u * n + v.
    With caps None the paths are edge-disjoint and `used` holds the net
    flow of each edge in one direction.  With caps = (source capacity,
    sink capacity) they are internally vertex-disjoint, every other
    vertex passes one unit, and through[v] counts the units through v.
    The parents are those of the last, failed search, or None when k
    paths were found.
    """
    n = g.n
    if not all(0 <= x < n for x in src | snk):
        raise GraphInputError("flow terminals must be vertices of the graph")
    used: set[int] = set()
    through = [0] * n
    for value in range(k):
        if caps is None:
            end, parent = _edge_search(g, src, snk, used)
        else:
            end, parent = _split_search(g, src, snk, caps, used, through)
        if end is None:
            return value, used, through, parent
        while parent[end] != end:
            prev = parent[end]
            if caps is None:
                if end * n + prev in used:
                    used.remove(end * n + prev)
                else:
                    used.add(prev * n + end)
            elif prev >> 1 == end >> 1:
                through[end >> 1] += 1 if end & 1 else -1
            elif prev & 1:
                used.add((prev >> 1) * n + (end >> 1))
            else:
                used.remove((end >> 1) * n + (prev >> 1))
            end = prev
    return k, used, through, None


def min_edge_cut_between(
    g: Graph, sources: Iterable[int], sinks: Iterable[int]
) -> EdgeCut:
    """Minimum-cardinality edge cut separating sources from sinks,
    as an exact cut (X, Y) with X the residual source side.

    A minimum-cardinality cut leaves exactly two connected pieces, so the
    sides of the result are the components of g minus the cut.
    """
    src, snk = _terminals(sources, sinks)
    parent = _max_flow(g, src, snk, g.m + 1)[3]
    cut = exact_cut(g, (x for x in range(g.n) if parent[x] >= 0))
    check(src <= cut.side_a and snk <= cut.side_b, "flow cut must separate terminals")
    return cut


def edge_disjoint_paths(
    g: Graph, sources: Iterable[int], sinks: Iterable[int], k: int
) -> list[list[int]] | None:
    """k pairwise edge-disjoint source-sink paths (flow decomposition),
    or None if fewer exist."""
    src, snk = _terminals(sources, sinks)
    value, used, _, _ = _max_flow(g, src, snk, k)
    if value < k:
        return None
    # no search enters a source, so its credit is its out-flow
    credits = [(x, sum(x * g.n + y in used for y in g._nbrs[x])) for x in sorted(src)]
    paths = _walk_paths(g.n, used, credits)
    check(len(paths) == k and all(p[-1] in snk for p in paths), "flow decomposition")
    return paths


def _split_paths(g, src, snk, k, caps):
    value, used, through, _ = _max_flow(g, src, snk, k, caps)
    if value < k:
        return None
    paths = _walk_paths(g.n, used, [(x, through[x]) for x in sorted(src)])
    check(len(paths) == k, "split-flow decomposition")
    return paths


def vertex_disjoint_paths(
    g: Graph, sources: Iterable[int], sinks: Iterable[int], k: int
) -> list[list[int]] | None:
    """k internally vertex-disjoint paths from the source set to the sink
    set, or None.

    A terminal set with several vertices spreads the paths over distinct
    vertices (each used at most once); a singleton terminal set is shared
    by all k paths, so singleton-to-singleton gives the classical
    internally disjoint u-v paths.  No path passes through a terminal.
    """
    src, snk = _terminals(sources, sinks)
    caps = (k if len(src) == 1 else 1, k if len(snk) == 1 else 1)
    return _split_paths(g, src, snk, k, caps)


def fan_paths(
    g: Graph, centre: int, targets: Iterable[int], k: int
) -> list[list[int]] | None:
    """k paths from `centre` to k distinct targets, pairwise sharing only
    the centre, or None.  The centre may not be a target."""
    tgt = set(targets)
    if centre in tgt:
        raise GraphInputError("centre cannot be one of the targets")
    return _split_paths(g, {centre}, tgt, k, (k, 1))
