"""Blocks, low-order connectivity tests and separations.

One low-point DFS, `_low_points`, serves both blocks and the separation
scan: run on g it gives the blocks, and run on G - u, with u stepped over
in place, it gives the cut vertices behind the least separating pair.
"""

from __future__ import annotations

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


def is_two_connected(g: Graph) -> bool:
    """2-connected in the strict sense: at least 3 vertices, connected,
    no cut vertex (one block, since the blocks cover every vertex)."""
    return g.n >= 3 and len(blocks(g)) == 1


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


def _least_separating_pair(g: Graph) -> tuple[int, int] | None:
    """The lexicographically least pair u < v with G - {u, v} disconnected,
    or None when there is none or g is disconnected.  g has at least 4
    vertices.

    For each u in ascending order, one `_low_points` pass over G - u
    finds its cut vertices, and the least cut vertex v > u gives the pair;
    a cut vertex v < u of G - u would have given (v, u) earlier.  When u
    is itself a cut vertex of g, G - u is disconnected and the pairs
    (u, v) are tested one by one; some (u, v) then separates unless
    u = n - 2, so that test runs at most once in full.  O(n(n + m)).

    g is connected when vertex 0 has a neighbour and G - 0 is connected;
    only a disconnected G - 0 costs a component search.
    """
    if not g._nbrs[0]:
        return None
    for u in range(g.n):
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

    One `_low_points` pass over G - u per vertex u: O(n(n + m)).
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

    One `_low_points` pass over G - u per vertex u: O(n(n + m)).
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
