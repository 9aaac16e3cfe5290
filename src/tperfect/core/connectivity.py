"""Blocks, low-order connectivity tests and separations.

One low-point DFS, `_low_points`, serves both blocks and the separation
scan: run on g it gives the blocks, and run on G - u, with u stepped over
in place, it gives the cut vertices behind the least separating pair.
A contraction certificate (Tutte's lemma) proves most 3-connected graphs
after the scan's first two passes, so their "no pair" costs no more.
"""

from __future__ import annotations

import heapq

from ..errors import check
from .graph import Graph


def _low_points(g: Graph, skip: int | None = None) -> tuple[list[set[int]], set[int], int]:
    """The blocks, cut vertices and number of components of g, or of
    G - skip when `skip` is given: one iterative Hopcroft-Tarjan
    low-point DFS over g's sorted adjacency.  O(n + m).

    Vertices are stacked as they are discovered; when a child v of u
    finishes with low[v] >= disc[u], the vertices stacked from v on, plus
    u, form a block.  A root with no child is an isolated vertex and a
    singleton block.  The skipped vertex is marked discovered at disc = n
    before the search, so it is never entered, never starts a tree and
    never lowers a low point: G - skip is searched with no graph built
    and no extra test per edge.
    """
    nbrs = g._nbrs
    disc = [-1] * g.n
    low = [0] * g.n
    if skip is not None:
        disc[skip] = g.n
    cut: set[int] = set()
    raw_blocks: list[set[int]] = []
    trees = 0
    timer = 0

    for root in range(g.n):
        if disc[root] != -1:
            continue
        trees += 1
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        found = [root]
        # frames: (vertex, iterator over its neighbours, its place in found)
        stack = [(root, iter(nbrs[root]), 0)]
        while stack:
            v, it, at = stack[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(nbrs[w]), len(found)))
                    found.append(w)
                    break
                # a back edge, or the tree edge to v's parent: low[v] never
                # drops below disc[parent] through it, so the test below holds
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u closes a block: v's stacked subtree plus u
                    blk = set(found[at:])
                    blk.add(u)
                    raw_blocks.append(blk)
                    del found[at:]
                    if u == root:
                        root_children += 1
                    else:
                        cut.add(u)
        if root_children == 0:
            raw_blocks.append({root})
        elif root_children > 1:
            cut.add(root)
    return raw_blocks, cut, trees


def blocks(g: Graph) -> tuple[frozenset[int], ...]:
    """The blocks (maximal 2-connected subgraphs, bridges, isolated
    vertices) from one `_low_points` pass.  Isolated vertices become
    singleton blocks so the blocks cover V as well as E.  Blocks are
    ordered by smallest contained vertex, then lexicographic.  O(n + m).
    """
    raw_blocks = _low_points(g)[0]
    ordered = sorted(raw_blocks, key=lambda b: (min(b), sorted(b)))
    return tuple(frozenset(b) for b in ordered)


def _first_side(g: Graph, u: int, v: int) -> set[int]:
    """The component of G - {u, v} that holds its smallest vertex: one
    search over g's adjacency that steps over u and v (g.n >= 3)."""
    start = min({0, 1, 2} - {u, v})
    seen = {start, u, v}
    found = [start]
    for x in found:
        for y in g._nbrs[x]:
            if y not in seen:
                seen.add(y)
                found.append(y)
    return set(found)


def _contracts_to_k4(g: Graph) -> bool:
    """True only when contracting edges whose two ends both have degree
    >= 3 turns g into K4, which proves g 3-connected.  False proves
    nothing.

    Lemma (Tutte, 1961).  If d(x), d(y) >= 3 and G/xy is 3-connected,
    then G is 3-connected.  Let S be a set of at most two vertices with
    G - S disconnected.  If S = {x, y}, the merged vertex alone cuts
    G/xy.  If S holds one end, say x, the component C of G - S that
    holds y is not {y}, since d(y) >= 3, so S - x plus the merged vertex
    cuts C - y from the other components in G/xy.  If S holds neither
    end, x and y lie in one component, and S still cuts G/xy.  So K4 at
    the end of the chain makes every graph on it 3-connected, g first.

    A heap with stale entries pops a least-degree live vertex y, which
    merges into its neighbour x with the fewest common neighbours when
    the merged vertex keeps degree >= 3 and no common neighbour drops
    below 3 (each loses one edge); otherwise y waits until the next
    contraction.  A 3-connected graph on 5 or more vertices has minimum
    degree 3, so a merge that breaks it cannot lead to K4.  Every live
    degree stays >= 3, so four live vertices are K4; when every live
    vertex waits, the answer is False.  Each merge costs O(d(y)^2).
    """
    adj = [set(ns) for ns in g._nbrs]
    if g.n < 4 or min(map(len, adj)) < 3:
        return False
    heap = [(len(ns), y) for y, ns in enumerate(adj)]
    heapq.heapify(heap)
    waiting: set[int] = set()
    live = g.n
    while live > 4:
        if not heap:
            return False
        d, y = heapq.heappop(heap)
        ny = adj[y]
        if d != len(ny):  # stale: y's degree changed, or y was merged away
            continue
        x = min(ny, key=lambda w: (len(ny & adj[w]), w))
        shared = ny & adj[x]
        if len(ny) + len(adj[x]) - 2 - len(shared) < 3 or any(len(adj[w]) < 4 for w in shared):
            waiting.add(y)
            continue
        for w in ny:
            adj[w].discard(y)
            if w != x:
                adj[w].add(x)
        adj[x] |= ny - {x}
        ny.clear()
        live -= 1
        for w in waiting | shared | {x}:
            heapq.heappush(heap, (len(adj[w]), w))
        waiting.clear()
    return True


def _least_separating_pair(g: Graph) -> tuple[int, int] | None:
    """The lexicographically least pair u < v with G - {u, v} disconnected,
    or None when there is none or g is disconnected.  g has at least 4
    vertices.

    For each u in ascending order, one `_low_points` pass over G - u
    finds its cut vertices, and the least cut vertex v > u gives the pair;
    a cut vertex v < u of G - u would have given (v, u) earlier.  When u
    is itself a cut vertex of g, G - u is disconnected and the pairs
    (u, v) are tested one by one; some (u, v) then separates unless
    u = n - 2, so that test runs at most once in full.

    Most least pairs start at vertex 0 or 1, so after those two passes
    `_contracts_to_k4` is tried once: when it proves g 3-connected the
    answer is None with no further pass.  Each pass is O(n + m); the
    scan is O(n(n + m)) only when the certificate fails or the least
    pair starts late.

    g is connected when vertex 0 has a neighbour and G - 0 is connected;
    only a disconnected G - 0 costs a component search.
    """
    if not g._nbrs[0]:
        return None
    for u in range(g.n):
        if u == 2 and _contracts_to_k4(g):
            return None
        _, cut, trees = _low_points(g, u)
        if trees > 1:
            if u == 0 and not g.is_connected():
                return None
            for v in range(u + 1, g.n):
                if len(_first_side(g, u, v)) < g.n - 2:
                    return u, v
            continue
        later = [v for v in cut if v > u]
        if later:
            return u, min(later)
    return None


def is_three_connected(g: Graph) -> bool:
    """True iff g is connected, has >= 4 vertices, and no vertex pair
    disconnects it.  Graphs on < 4 vertices report False by convention.

    The separation scan of `_least_separating_pair`: two O(n + m)
    passes and the contraction certificate when it proves g 3-connected,
    one pass over G - u per vertex u, O(n(n + m)), only when it fails.
    """
    if g.n < 4 or not g.is_connected():
        return False
    return _least_separating_pair(g) is None


def find_two_separation(g: Graph) -> tuple[int, int, set[int]] | None:
    """The least order-2 separation of g, as (u, v, first).

    The pair u < v is the lexicographically least pair that disconnects
    g, so {u, v} is a minimum vertex cut, and `first` is the component of
    G - {u, v} holding its smallest vertex.  The two sides are
    first | {u, v} and the rest of g, both proper.  Returns None when no
    pair separates: g is 3-connected, disconnected or has fewer than 4
    vertices, so on a connected g with 4 or more vertices None means
    3-connected.

    A pair starting at vertex 0 or 1 costs one or two O(n + m) passes
    over G - u, and a g that the contraction certificate proves
    3-connected costs two passes plus the contractions.  Only a pair
    starting later, or a 3-connected g the certificate misses, costs one
    pass per vertex up to it: O(n(n + m)).
    """
    if g.n < 4:
        return None
    pair = _least_separating_pair(g)
    if pair is None:
        return None
    u, v = pair
    first = _first_side(g, u, v)
    check(0 < len(first) < g.n - 2, "separation sides must be proper")
    return u, v, first
