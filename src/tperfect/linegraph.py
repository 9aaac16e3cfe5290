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
try each candidate seed, propagate, and keep the first partition whose
reconstructed root verifies L(root) == G exactly.

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

    def derived_line_graph_edges(self) -> set[Edge]:
        """Edges of L(root) pushed through the bijection."""
        incident: dict[int, list[Edge]] = {}
        for e in self.root.edges:
            for w in e:
                incident.setdefault(w, []).append(e)
        out: set[Edge] = set()
        for w, es in incident.items():
            for e, f in combinations(es, 2):
                out.add(edge_key(self.edge_to_vertex[e], self.edge_to_vertex[f]))
        return out

    def verify_against(self, g: Graph) -> bool:
        if set(self.edge_to_vertex) != set(self.root.edges):
            return False
        if sorted(self.edge_to_vertex.values()) != list(range(g.n)):
            return False
        return self.derived_line_graph_edges() == set(g.edges)


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


def _propagate_cells(g: Graph, seed: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Grow the forced cell partition from a seed cell; None on failure."""
    cells: list[tuple[int, ...]] = [seed]
    cell_count = {v: 0 for v in range(g.n)}
    covered: set[Edge] = set()
    for a, b in combinations(seed, 2):
        covered.add(edge_key(a, b))
    for v in seed:
        cell_count[v] += 1
    queue = list(seed)
    processed: set[int] = set()
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if v in processed:
            continue
        processed.add(v)
        uncovered = [w for w in g.sorted_neighbors(v) if edge_key(v, w) not in covered]
        if not uncovered:
            continue
        if cell_count[v] >= 2:
            return None
        cell = tuple([v] + uncovered)
        for a, b in combinations(cell, 2):
            e = edge_key(a, b)
            if not g.has_edge(a, b) or e in covered:
                return None
        for a, b in combinations(cell, 2):
            covered.add(edge_key(a, b))
        for w in cell:
            cell_count[w] += 1
            if cell_count[w] > 2:
                return None
        cells.append(cell)
        queue.extend(uncovered)
    if len(covered) != g.m:
        return None
    return cells


def _root_from_cells(g: Graph, cells: list[tuple[int, ...]]) -> RootMapping | None:
    cell_ids: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, cell in enumerate(cells):
        for v in cell:
            cell_ids[v].append(i)
    next_id = len(cells)
    edge_to_vertex: dict[Edge, int] = {}
    root_edges: list[Edge] = []
    for v in range(g.n):
        ids = cell_ids[v]
        if len(ids) == 2:
            e = edge_key(ids[0], ids[1])
        elif len(ids) == 1:
            e = edge_key(ids[0], next_id)
            next_id += 1
        else:
            return None
        if e in edge_to_vertex:
            return None
        edge_to_vertex[e] = v
        root_edges.append(e)
    root_edges.sort()
    return RootMapping(Graph._trusted(next_id, root_edges), edge_to_vertex)


def recognize_line_graph(g: Graph) -> RootMapping | None:
    """Root reconstruction for a connected graph; None if not a line graph.

    The returned mapping always satisfies L(root) == g exactly (re-derived
    and checked before returning), so a non-None answer is self-certifying.
    """
    if not g.is_connected():
        raise GraphInputError("recognize_line_graph expects a connected graph")
    if g.n == 0:
        return None
    if g.n == 1:
        root = Graph(2, [(0, 1)])
        return RootMapping(root, {(0, 1): 0})
    x, y = g.edges[0]
    common = sorted(g.neighbors(x) & g.neighbors(y))
    widest = tuple([x, y] + common)
    candidates = [widest] + [
        tuple(v for v in widest if v != z) for z in common
    ]
    for cand in candidates:
        if not g.is_clique(cand):
            continue
        cells = _propagate_cells(g, cand)
        if cells is None:
            continue
        rm = _root_from_cells(g, cells)
        if rm is not None and rm.verify_against(g):
            return rm
    return None
