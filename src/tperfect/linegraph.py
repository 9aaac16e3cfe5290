"""Line-graph recognition and root reconstruction.

A connected graph G is a line graph exactly when its edges partition into
cliques ("cells") with every vertex in at most two cells; a root graph H
then has one vertex per cell (plus a private endpoint for each vertex of G
lying in a single cell), and L(H) = G vertex-for-vertex.

The reconstruction here rests on one structural fact.  Fix any valid cell
partition and an edge xy whose cell is K.  Every common neighbour of x and
y is either a member of K or the single vertex playing the "third corner of
a root triangle" role, and at most one common neighbour can play that role.
So the cell of the starting edge is {x,y} plus the common neighbourhood
minus at most one vertex: at most |common|+1 candidates.  Once a correct
seed cell is fixed, the rest of the partition is forced (a vertex with one
known cell has all its remaining edges in exactly one further cell), so we
try each candidate seed, propagate, and keep the first partition that
succeeds: its root satisfies L(root) == G by construction (see
`_root_from_seed`).

Propagation works on sets: each vertex holds the ids of its first and
second cell, each cell is a frozenset, and a vertex's uncovered neighbours
are its neighbourhood minus its cells.  A root needs every vertex in a
cell, reached from the seed through adjacent vertices, so it proves G
connected, and a disconnected graph gets None like any other graph without
a root: no connectivity search is made.

K3 is the classical ambiguous case (roots K3 and K1,3 both work); the
candidate order tries the larger seed first, so the emitted root is K1,3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core.graph import Edge, Graph, edge_key
from .errors import GraphInputError


@dataclass(frozen=True)
class RootMapping:
    """A root graph plus the bijection edges(root) -> vertices(G)."""

    root: Graph
    edge_to_vertex: dict[Edge, int]

    def verify_against(self, g: Graph) -> bool:
        """True iff the mapping is a bijection edges(root) -> V(g) with
        L(root) == g through it: a complete check for any mapping, in O(m).

        The edges at each root vertex map to a vertex set that must be a
        clique of g (one intersection per member), and the pairs derived
        there are counted.  Derived pairs are distinct: two root vertices
        deriving {p, q} would both be ends of the root edges mapped to p
        and q, which a simple root rules out.  So all derived pairs are
        edges of g, and they are all of E(g) exactly when they number g.m.
        """
        e2v = self.edge_to_vertex
        if e2v.keys() != set(self.root.edges) or sorted(e2v.values()) != list(range(g.n)):
            return False
        at: list[list[int]] = [[] for _ in range(self.root.n)]
        for (a, b), v in e2v.items():
            at[a].append(v)
            at[b].append(v)
        adj = g._adj
        cliques = [set(vs) for vs in at if len(vs) > 1]
        if any(len(adj[v] & c) != len(c) - 1 for c in cliques for v in c):
            return False
        return sum(len(c) * (len(c) - 1) // 2 for c in cliques) == g.m


def line_graph(h: Graph) -> tuple[Graph, dict[Edge, int]]:
    """L(h) together with the map edge-of-h -> vertex-of-L(h)."""
    if h.m == 0:
        raise GraphInputError("line graph of an edgeless graph")
    index = {e: i for i, e in enumerate(h.edges)}
    lg_edges: set[Edge] = set()
    for v in range(h.n):
        incident = [edge_key(v, w) for w in h.sorted_neighbors(v)]
        for e, f in combinations(incident, 2):
            lg_edges.add(edge_key(index[e], index[f]))
    return Graph._trusted(h.m, sorted(lg_edges)), dict(index)


def _root_from_seed(g: Graph, seed: tuple[int, ...]) -> RootMapping | None:
    """Grow the forced cell partition from a seed cell and read the root
    off it (cells numbered in creation order, then private endpoints in
    vertex order); None when the partition fails.

    Cells are cliques: the seed by the caller's `g.is_clique`, the rest by
    the `k` check.  Two share at most one vertex: a new cell meets v's
    first cell only in v, and the overlap check rejects a w whose first
    cell meets it twice.  A queued vertex has all its edges in its cells,
    or None is returned.  So once every vertex has a first cell, the cells
    partition E(g) exactly, vertices get distinct (first, second) pairs,
    and they are adjacent exactly when their root edges share a cell:
    L(root) == g."""
    adj = g._adj
    first = [-1] * g.n
    second = [-1] * g.n
    members = [frozenset(seed)]
    for v in seed:
        first[v] = 0
    queue = list(seed)
    for v in queue:
        uncovered = adj[v] - members[first[v]]
        if not uncovered:
            continue
        if second[v] != -1:
            if uncovered - members[second[v]]:
                return None  # a vertex already in two cells has an edge left
            continue
        cid = len(members)
        cell = uncovered | {v}
        k = len(uncovered)
        for w in uncovered:
            if len(adj[w] & cell) != k:
                return None  # not a clique
            if first[w] == -1:
                first[w] = cid
            elif second[w] != -1 or len(members[first[w]] & cell) > 1:
                return None  # a third cell, or a pair covered twice
            else:
                second[w] = cid
        second[v] = cid
        members.append(cell)
        queue.extend(sorted(uncovered))
    next_id = len(members)
    edge_to_vertex: dict[Edge, int] = {}
    for v in range(g.n):
        a, b = first[v], second[v]
        if a == -1:
            return None
        if b == -1:
            b = next_id
            next_id += 1
        edge_to_vertex[a, b] = v
    return RootMapping(Graph._trusted(next_id, sorted(edge_to_vertex)), edge_to_vertex)


def recognize_line_graph(g: Graph) -> RootMapping | None:
    """Root reconstruction; None if g is not a connected line graph.

    The returned mapping satisfies L(root) == g by construction (see
    `_root_from_seed`); `RootMapping.verify_against` checks it in O(m).
    """
    if g.m == 0:
        return _root_from_seed(g, (0,)) if g.n == 1 else None
    x, y = g.edges[0]
    common = sorted(g.neighbors(x) & g.neighbors(y))
    widest = tuple([x, y] + common)
    for cand in [widest] + [tuple(v for v in widest if v != z) for z in common]:
        if g.is_clique(cand) and (rm := _root_from_seed(g, cand)) is not None:
            return rm
    return None
