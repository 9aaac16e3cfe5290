"""Immutable simple-graph type and elementary transformations.

Vertices are the integers 0..n-1.  Every transforming operation returns a
fresh graph together with an old->new relabel map, so decision certificates
can be pulled back to the original input through any chain of reductions.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..errors import GraphInputError

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalize an undirected edge to a sorted pair."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph with sorted edges and sorted neighbours.

    Instances are immutable and hashable; all operations producing a new
    graph are pure functions.  The constructor checks every edge; the
    transformations below build through `_trusted`, which skips the checks.
    """

    __slots__ = ("n", "_adj", "_nbrs", "_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise GraphInputError(f"negative vertex count {n}")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphInputError(f"loop at vertex {u}")
            e = edge_key(u, v)
            if e in seen:
                raise GraphInputError(f"duplicate edge {e}")
            seen.add(e)
        self._fill(n, sorted(seen))

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Internal build with no checks: `edges` must already be sorted,
        normalized by `edge_key`, distinct and in range."""
        g = object.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges: Iterable[Edge]) -> None:
        self.n = n
        self._edges: tuple[Edge, ...] = tuple(edges)
        # sorted edges append each neighbour list in ascending order
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self._edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._nbrs: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))
        self._adj: tuple[frozenset[int], ...] = tuple(map(frozenset, nbrs))
        self._hash: int | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def sorted_neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of v in ascending order, as a shared read-only tuple."""
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def is_subcubic(self) -> bool:
        return self.max_degree() <= 3

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- transformations (all return relabel maps where labels change) ---

    def with_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={self.n}")
        if self.has_edge(u, v):
            raise GraphInputError(f"edge ({u},{v}) already present")
        if u == v:
            raise GraphInputError(f"loop at vertex {u}")
        # timsort places the one appended edge in a linear pass
        return Graph._trusted(self.n, sorted(self._edges + (edge_key(u, v),)))

    def without_edge(self, u: int, v: int) -> "Graph":
        return self.without_edges([(u, v)])

    def without_edges(self, remove: Iterable[Edge]) -> "Graph":
        """g minus the given edges; an edge g lacks, or one out of range,
        raises GraphInputError."""
        dead = {edge_key(u, v) for u, v in remove}
        for e in dead:
            if not (0 <= e[0] and e[1] < self.n and self.has_edge(*e)):
                raise GraphInputError(f"edge {e} not present")
        return Graph._trusted(self.n, [e for e in self._edges if e not in dead])

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `vertices`; returns (graph, old->new map)."""
        keep = sorted(set(vertices))
        if keep and (keep[0] < 0 or keep[-1] >= self.n):
            raise GraphInputError(f"vertices {keep[0]}..{keep[-1]} not all in range for n={self.n}")
        old_to_new = {v: i for i, v in enumerate(keep)}
        es = [
            (old_to_new[u], old_to_new[v])
            for u, v in self._edges
            if u in old_to_new and v in old_to_new
        ]
        # old_to_new is increasing, so the mapped edges stay sorted
        return Graph._trusted(len(keep), es), old_to_new

    def without_vertex(self, v: int) -> tuple["Graph", dict[int, int]]:
        if not 0 <= v < self.n:
            raise GraphInputError(f"vertex {v} out of range for n={self.n}")
        return self.induced(u for u in range(self.n) if u != v)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(self.has_edge(a, b) for a, b in combinations(vs, 2))

    def _bfs_forest(self) -> tuple[list[int], list[list[int]]]:
        """One BFS per component, from its smallest vertex over the sorted
        neighbours: the depth parity of every vertex, and the components
        as sorted vertex lists ordered by smallest vertex."""
        parity = [-1] * self.n
        comps = []
        for s in range(self.n):
            if parity[s] != -1:
                continue
            parity[s] = 0
            queue = [s]
            for x in queue:
                p = parity[x] ^ 1
                for y in self._nbrs[x]:
                    if parity[y] == -1:
                        parity[y] = p
                        queue.append(y)
            queue.sort()
            comps.append(queue)
        return parity, comps

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest vertex."""
        return self._bfs_forest()[1]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def is_bipartite(self) -> bool:
        """Bipartite iff the BFS depth parities 2-colour every edge: a
        proper 2-colouring of a component is unique up to a swap."""
        parity = self._bfs_forest()[0]
        return all(parity[u] != parity[v] for u, v in self._edges)


def identify_vertices(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Merge u and v into one vertex; parallel edges collapse, loops vanish.

    Returns (graph, old->new map); u and v map to the same new index.
    The result is always simple.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphInputError(f"vertices ({u},{v}) out of range for n={g.n}")
    if u == v:
        raise GraphInputError("cannot identify a vertex with itself")
    keep = [w for w in range(g.n) if w != max(u, v)]
    old_to_new = {w: i for i, w in enumerate(keep)}
    old_to_new[max(u, v)] = old_to_new[min(u, v)]
    es = set()
    for a, b in g.edges:
        na, nb = old_to_new[a], old_to_new[b]
        if na != nb:
            es.add(edge_key(na, nb))
    return Graph._trusted(g.n - 1, sorted(es)), old_to_new


def path_edges(seq: list[int]) -> list[Edge]:
    return [edge_key(a, b) for a, b in zip(seq, seq[1:])]


def bfs_path(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    banned_vertices: Iterable[int] = (),
) -> list[int] | None:
    """Shortest path from any source to any target, avoiding the banned
    vertices; a vertex out of range raises GraphInputError.

    Deterministic: BFS scans sorted sources and sorted neighbors.
    """
    src = sorted(set(sources))
    tgt = set(targets)
    dead_v = set(banned_vertices)
    if not all(0 <= x < g.n for vs in (src, tgt, dead_v) for x in vs):
        raise GraphInputError(f"path search vertices out of range for n={g.n}")
    parent: dict[int, int | None] = {}
    queue = []
    for s in src:
        if s in dead_v:
            continue
        parent[s] = None
        if s in tgt:
            return [s]
        queue.append(s)
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in g.sorted_neighbors(x):
            if y in parent or y in dead_v:
                continue
            parent[y] = x
            if y in tgt:
                path = [y]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(y)
    return None
