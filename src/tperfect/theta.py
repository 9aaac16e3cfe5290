"""Skewed-theta detection in subcubic graphs.

A skewed theta is a subgraph made of three edge-disjoint paths joining two
branch vertices, two paths of odd length and one of even length, so a
bipartite graph has none: one BFS 2-colouring of the whole graph answers
it.  Otherwise the decision runs per 2-connected block in two phases.
Phase one starts from the 2-colouring of a BFS spanning tree, so tree edges
are even-class, the even graph is connected, and the odd-class edges are
the non-tree edges closing odd fundamental cycles.  It then repeatedly
either certifies a skewed theta or finds an edge cut with more odd- than
even-class edges and flips one side of it, strictly shrinking the odd-edge
count; `triads` reads three fundamental cycles off one BFS tree of the even
graph by walking up parents, splits trees with one edge-component search,
and walks the tri-odd ring in place.  Once at most two odd-class edges remain,
phase two decides directly; since a cycle is odd exactly when it carries an
odd number of odd-class edges, every skewed theta contains one of them.
Two are flipped down to one when the O(m) `small_flip_cut` finds a cut of
at most three edges through both; otherwise a minimum cut between their
linking paths either certifies a theta (the lemma in `_linking_paths_cut`)
or is split into two smaller two-edge instances, pairing the cut edges by
one 2-path flow per side and reading path parities from the labels (the
lemma in `_two_odd_block`).  With one, e, a skewed theta exists iff two
degree-3 vertices on opposite sides of e's block are joined by three
edge-disjoint paths (the lemma in `_one_odd_block`), decided by at most one
minimum cut per degree-3 vertex in O(n * m).  `decide_few_odd_edges` is
phase two's one public entry.  The exhaustive 2-linkage and
disjoint-odd-cycle searches of `parity` are references for the tests, not
decision steps.

Verdicts carry a trace of fired rules; explicit theta subgraphs are not
extracted (the brute-force oracle provides witnesses at desk scale).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.connectivity import blocks
from .core.flow import (
    EdgeCut,
    edge_disjoint_paths,
    exact_cut,
    fan_paths,  # unused here; the traced benchmark wraps it by this name
    min_edge_cut_between,
    vertex_disjoint_paths,
)
from .core.graph import (
    Edge,
    Graph,
    bfs_path,
    edge_key,
    path_edges,
)
from .errors import GraphInputError, check
from .parity import (  # unused here; the traced benchmark wraps them by these names
    find_two_disjoint_paths,
    has_two_disjoint_odd_cycles,
)

CONTAINS = "contains-skewed-theta"
NO_THETA = "no-skewed-theta"


@dataclass(frozen=True)
class OddEdgeView:
    """A bipartition, as one side label (0 or 1) per vertex, together with
    the derived odd-class edges: those whose endpoints share a side.
    """

    graph: Graph
    labels: tuple[int, ...]
    odd_edges: tuple[Edge, ...]

    def even_graph(self) -> Graph:
        """The spanning subgraph of the even-class edges, built per call."""
        labels = self.labels
        return Graph._trusted(
            self.graph.n, [e for e in self.graph.edges if labels[e[0]] != labels[e[1]]]
        )

    def is_odd(self, e: Edge) -> bool:
        u, v = e
        return self.labels[u] == self.labels[v]

    def count_odd(self, edges) -> int:
        return sum(1 for e in edges if self.is_odd(e))


def make_view(g: Graph, labels) -> OddEdgeView:
    labels = tuple(labels)
    if len(labels) != g.n:
        raise GraphInputError("bipartition must label every vertex")
    if not set(labels) <= {0, 1}:
        raise GraphInputError("bipartition labels must be 0 or 1")
    odd = tuple(e for e in g.edges if labels[e[0]] == labels[e[1]])
    return OddEdgeView(g, labels, odd)


def spanning_tree_view(g: Graph) -> OddEdgeView:
    """Phase one's start state: each component 2-coloured by BFS depth
    parity from its smallest vertex, read off `Graph._bfs_forest`.  Tree
    edges are even-class, so the even graph has g's components, and the
    odd-class edges are the non-tree edges closing odd fundamental cycles:
    at most m - n + 1 on a connected graph, and none exactly when g is
    bipartite."""
    return make_view(g, g._bfs_forest()[0])


@dataclass(frozen=True)
class ThetaFound:
    """Marker returned by cut-producing routines when they certify a theta."""

    rule: str


@dataclass(frozen=True)
class ThetaVerdict:
    contains: bool
    trace: tuple[tuple[str, dict], ...]

    @property
    def outcome(self) -> str:
        return CONTAINS if self.contains else NO_THETA


def flip(view: OddEdgeView, cut: EdgeCut) -> OddEdgeView:
    """Toggle one side of an exact cut carrying more odd- than even-class
    edges; the odd-edge count strictly decreases and edges outside the cut
    keep their class."""
    cut.validate_against(view.graph)
    odd_in = view.count_odd(cut.edges)
    even_in = len(cut.edges) - odd_in
    if odd_in <= even_in:
        raise GraphInputError(
            f"flip needs more odd than even edges in the cut ({odd_in} vs {even_in})"
        )
    labels = list(view.labels)
    for v in cut.side_a:
        labels[v] ^= 1
    new = make_view(view.graph, labels)
    check(
        len(new.odd_edges) == len(view.odd_edges) - (odd_in - even_in),
        "flip must decrease the odd-edge count by the cut surplus",
    )
    return new


def crossing_on_cycle(cycle: list[int], p: list[int], q: list[int]) -> bool:
    """Do the endpoint pairs of two disjoint cycle-attached paths
    interleave in the cyclic order?"""
    pos = {v: i for i, v in enumerate(cycle)}
    ends = [p[0], p[-1], q[0], q[-1]]
    if any(v not in pos for v in ends) or len(set(ends)) != 4:
        raise GraphInputError("crossing test needs four distinct endpoints on the cycle")
    length = len(cycle)
    a, b = pos[p[0]], pos[p[-1]]
    span = (b - a) % length
    inside = sum(1 for v in (q[0], q[-1]) if 0 < (pos[v] - a) % length < span)
    return inside == 1


# ---------------------------------------------------------------------------
# phase one: three or more odd-class edges
# ---------------------------------------------------------------------------


def _prune_to_required(vertices: set[int], edges: set[Edge], required: set[int]):
    """Repeatedly delete leaves that are not required endpoints; yields the
    minimal subtree spanning the required vertices it contains."""
    vs, es = set(vertices), set(edges)
    while True:
        deg: dict[int, int] = {v: 0 for v in vs}
        for a, b in es:
            deg[a] += 1
            deg[b] += 1
        prunable = [v for v in sorted(vs) if deg[v] <= 1 and v not in required and len(vs) > 1]
        if not prunable:
            return vs, es
        for v in prunable:
            vs.discard(v)
            es = {e for e in es if v not in e}


def _tree_pair_cut(
    h: Graph, gp: Graph, view: OddEdgeView, side1, side2, odds: tuple[Edge, Edge, Edge]
):
    """Steps shared by the common-edge and crossing cases: prune the two
    trees to minimality, then a minimum cut between them in the even
    graph gp either certifies a theta (three even connections) or yields
    the flip cut."""
    ends = {x for e in odds for x in e}
    t1v, t1e = _prune_to_required(set(side1[0]), set(side1[1]), ends)
    t2v, t2e = _prune_to_required(set(side2[0]), set(side2[1]), ends)
    check(not (t1v & t2v), "triad trees must be disjoint")
    for vs, es in ((t1v, t1e), (t2v, t2e)):
        check(len(es) == len(vs) - 1, "triad sides must be trees")
        for e in odds:
            check(set(e) & vs, "each triad tree needs an endpoint of every odd edge")
    cut = min_edge_cut_between(gp, t1v, t2v)
    if len(cut.edges) >= 3:
        return ThetaFound("three-even-connections-between-triad-trees")
    full = exact_cut(h, cut.side_a)
    check(all(e in full.edges for e in odds), "triad cut must carry the odd triple")
    check(
        view.count_odd(full.edges) > len(full.edges) - view.count_odd(full.edges),
        "returned cut must have more odd than even edges",
    )
    return full


def triads(
    h: Graph, view: OddEdgeView, o1: Edge, o2: Edge, o3: Edge
) -> ThetaFound | EdgeCut:
    """Reduce three odd-class edges: either certify a skewed theta or
    produce an exact cut with more odd- than even-class edges.

    The routine follows the fundamental-cycle analysis: disconnected even
    graph, two edge-disjoint odd fundamental cycles, a common cycle edge,
    a one-edge separation, and finally the crossing analysis of two even
    connections off the tri-odd cycle.  The fundamental cycles are read
    off one BFS tree of the even graph by walking up parents; the even
    graph itself is built only for the flows of the last three steps.
    """
    odds = tuple(sorted({edge_key(*o1), edge_key(*o2), edge_key(*o3)}))
    if len(odds) != 3 or any(not view.is_odd(e) for e in odds):
        raise GraphInputError("triads needs three distinct odd-class edges")
    if not h.is_subcubic():
        raise GraphInputError("triads expects a subcubic graph")
    o1, o2, o3 = odds

    parent, depth, reached = _even_bfs_tree(h, view.labels)
    if len(reached) < h.n:
        cut = exact_cut(h, reached)
        check(
            all(view.is_odd(e) for e in cut.edges) and len(cut.edges) >= 2,
            "component cut of the even graph must be all-odd and >= 2 edges",
        )
        return cut

    cycle_edges = {o: _tree_cycle_edges(parent, depth, o) for o in odds}
    for a, b in ((o1, o2), (o1, o3), (o2, o3)):
        if not (cycle_edges[a] & cycle_edges[b]):
            return ThetaFound("edge-disjoint-odd-fundamental-cycles")

    gp = view.even_graph()
    all_edges = cycle_edges[o1] | cycle_edges[o2] | cycle_edges[o3]
    common = cycle_edges[o1] & cycle_edges[o2] & cycle_edges[o3]
    if common:
        # The three tree paths share e, so their union splits at e into two
        # trees, e[0]'s side first.  Neither is a lone end x of e: each
        # cycle would then leave x through its odd edge, so x would meet e
        # and all three odd edges, degree 4 in a subcubic graph.
        e = min(common)
        sides = _edge_components(h.n, all_edges - set(odds) - {e})
        check(len(sides) == 2, "the union tree splits at e into two trees")
        if e[0] not in sides[0][0]:
            sides.reverse()
        return _tree_pair_cut(h, gp, view, sides[0], sides[1], odds)

    # the unique cycle through all three odd edges: exactly the edges lying
    # in a single fundamental cycle
    ring = {e for e in all_edges if sum(e in cycle_edges[o] for o in odds) == 1}
    cycle_order, arcs = _ring_arcs(ring, odds)
    s1 = arcs[0]
    others = set(arcs[1]) | set(arcs[2])

    cut6 = min_edge_cut_between(gp, set(s1), others)
    check(len(cut6.edges) >= 1, "even graph is connected here")
    if len(cut6.edges) == 1:
        full = exact_cut(h, cut6.side_a)
        n_odd = view.count_odd(full.edges)
        check(
            n_odd >= 2 and len(full.edges) - n_odd == 1,
            "one-edge separation cut must carry two odd edges and one even",
        )
        return full

    paths = edge_disjoint_paths(gp, set(s1), others, 2)
    check(paths is not None, "two even connections exist once no single edge separates")
    p = _trim_xy_path(paths[0], set(s1), others)
    q = _trim_xy_path(paths[1], set(s1), others)
    p, q = _align_connection_pair(gp, s1, arcs[1], arcs[2], p, q)

    if not crossing_on_cycle(cycle_order, p, q):
        return ThetaFound("non-crossing-even-connections-give-disjoint-odd-cycles")

    # crossing: cut the first arc between the two attachment points and
    # re-run the two-tree analysis on the resulting components
    p1, q1 = p[0], q[0]
    check(p1 != q1 and p1 in s1 and q1 in s1, "both connections start on the first arc")
    i = min(s1.index(p1), s1.index(q1))
    e_cut = edge_key(s1[i], s1[i + 1])
    pieces = ring - set(odds) - {e_cut}
    union = pieces | set(path_edges(p)) | set(path_edges(q))
    comps = _edge_components(h.n, union)
    check(len(comps) == 2, "crossing split must leave two components")
    return _tree_pair_cut(h, gp, view, comps[0], comps[1], odds)


def _even_bfs_tree(h: Graph, labels) -> tuple[list[int], list[int], list[int]]:
    """BFS from vertex 0 over h's sorted neighbours across label-changing
    edges only: the even graph's search, without building it.  Parents
    and depths are -1 off the tree; `reached` is in BFS order."""
    parent, depth = [-1] * h.n, [-1] * h.n
    depth[0] = 0
    reached = [0]
    for x in reached:
        for y in h._nbrs[x]:
            if depth[y] == -1 and labels[y] != labels[x]:
                parent[y], depth[y] = x, depth[x] + 1
                reached.append(y)
    return parent, depth, reached


def _tree_cycle_edges(parent: list[int], depth: list[int], e: Edge) -> set[Edge]:
    """The non-tree edge e plus the tree path between its ends, walked up
    from the deeper end to the common ancestor: e's fundamental cycle."""
    a, b = e
    edges = {edge_key(a, b)}
    while a != b:
        if depth[a] < depth[b]:
            a, b = b, a
        edges.add(edge_key(a, parent[a]))
        a = parent[a]
    return edges


def _ring_arcs(ring: set[Edge], odds) -> tuple[list[int], list[list[int]]]:
    """The ring's vertices in cyclic order, from its least vertex towards
    its smaller ring neighbour, and the three arcs that the three odd
    edges cut it into, each in that order, sorted by least vertex.  One
    walk round the ring; it must be one cycle through every odd edge."""
    nbrs: dict[int, list[int]] = {}
    for a, b in ring:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    check(all(len(ns) == 2 for ns in nbrs.values()), "ring must be a single cycle")
    start = min(nbrs)
    order = [start]
    prev, cur = start, min(nbrs[start])
    while cur != start:
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, (b if a == prev else a)
    check(len(order) == len(ring), "ring must be a single cycle")
    arcs: list[list[int]] = [[]]
    for a, b in zip(order, order[1:] + order[:1]):
        arcs[-1].append(a)
        if edge_key(a, b) in odds:
            arcs.append([])
    check(len(arcs) == 4, "the tri-odd cycle passes through all three odd edges")
    arcs[0] = arcs.pop() + arcs[0]  # the arc across the closing edge
    arcs.sort(key=min)
    return order, arcs


def _edge_components(n: int, edges: set[Edge]):
    """Components of an edge set on vertices below n, ordered by smallest
    vertex, as (vertex set, edge set) pairs; isolated vertices are left out.
    One search over the edges alone, with no graph built on all n vertices."""
    nbrs: dict[int, list[int]] = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    home = [-1] * n
    comps: list[tuple[set[int], set[Edge]]] = []
    for start in sorted(nbrs):
        if home[start] != -1:
            continue
        home[start] = len(comps)
        found = [start]
        for x in found:
            for y in nbrs[x]:
                if home[y] == -1:
                    home[y] = len(comps)
                    found.append(y)
        comps.append((set(found), set()))
    for e in edges:
        comps[home[e[0]]][1].add(e)
    return comps


def _trim_xy_path(path: list[int], xs: set[int], ys: set[int]) -> list[int]:
    j = next(i for i, v in enumerate(path) if v in ys)
    i = max(k for k in range(j + 1) if path[k] in xs)
    return path[i : j + 1]


def _align_connection_pair(gp, s1, arc2, arc3, p, q):
    """Ensure one connection ends on arc2 and the other on arc3, rerouting
    one of them through a detour that avoids the doubly-hit arc."""
    set2, set3 = set(arc2), set(arc3)

    def lands(path):
        return 2 if path[-1] in set2 else 3

    if {lands(p), lands(q)} == {2, 3}:
        return (p, q) if lands(p) == 2 else (q, p)
    hit = set2 if lands(p) == 2 else set3
    missed_arc = arc3 if lands(p) == 2 else arc2
    detour = bfs_path(gp, set(s1), set(missed_arc), banned_vertices=hit)
    check(detour is not None, "a connection avoiding the doubly-hit arc exists")
    detour = _trim_xy_path(detour, set(s1), set(missed_arc))
    on_pq = {v: ("p", i) for i, v in enumerate(p)}
    on_pq.update({v: ("q", i) for i, v in enumerate(q)})
    meet = None
    for i, v in enumerate(detour):
        if v in on_pq:
            meet = i
    if meet is None:
        new_p, new_q = p, detour
    else:
        which, idx = on_pq[detour[meet]]
        if which == "q":
            new_p, new_q = p, q[: idx + 1] + detour[meet + 1 :]
        else:
            new_p, new_q = q, p[: idx + 1] + detour[meet + 1 :]
    check(
        not (set(path_edges(new_p)) & set(path_edges(new_q))),
        "aligned connections must stay edge-disjoint",
    )
    return (new_p, new_q) if new_p[-1] in set2 else (new_q, new_p)


# ---------------------------------------------------------------------------
# phase two: at most two odd-class edges
# ---------------------------------------------------------------------------


def decide_few_odd_edges(h: Graph, view: OddEdgeView) -> ThetaVerdict:
    """Dispatch on the number of odd-class edges per block: zero means no
    skewed theta, one goes to the single-odd-edge flow test, two goes
    through the small-cut pipeline."""
    if len(view.odd_edges) > 2:
        raise GraphInputError("dispatcher expects at most two odd-class edges")
    trace: list[tuple[str, dict]] = []
    for blk in blocks(h) if view.odd_edges else ():
        if len(blk) < 3:
            continue
        sub, sview = h, view
        if len(blk) < h.n:
            sub, old_to_new = h.induced(blk)  # ordered by new vertex
            sview = make_view(sub, [view.labels[old] for old in old_to_new])
        verdict = _few_odd_block(sub, sview)
        trace.extend(verdict.trace)
        if verdict.contains:
            return ThetaVerdict(True, tuple(trace))
    trace.append(("no-remaining-odd-structure", {"n": h.n, "m": h.m}))
    return ThetaVerdict(False, tuple(trace))


def _few_odd_block(h: Graph, view: OddEdgeView) -> ThetaVerdict:
    """`decide_few_odd_edges` on one 2-connected block, without its block
    pass or closing trace entry.

    Two odd-class edges o1, o2 first meet the O(m) `small_flip_cut`: its
    cut C is flipped and the block goes to the one-odd-edge test.  Only
    without one do `_linking_paths_cut`'s flows run.  The order changes no
    outcome.  Both odd edges cross C, so each of the linking paths p1, p2
    joins an end of o1 to an end of o2.  Neither path uses
    o1 or o2 (the terminals are sealed), so each crosses C at most once,
    through its third edge.  If p1 crossed, it would join ends on
    opposite sides, and so would p2, which would need the same edge,
    but the paths are disjoint.  So p1 and p2 lie on opposite sides of
    C, their minimum cut has at most |C| <= 3 < 5 edges, and
    `_linking_paths_cut` would return a cut rather than a theta, after
    which `_two_odd_block` would flip C and log the same trace.
    """
    if not view.odd_edges:
        return ThetaVerdict(False, ())
    if len(view.odd_edges) == 1:
        return _one_odd_block(h, view)
    cand = small_flip_cut(h, view)
    if cand is not None:
        flipped = flip(view, cand)
        check(len(flipped.odd_edges) <= 1, "small-cut flip leaves at most one odd edge")
        verdict = _one_odd_block(h, flipped)
        flipped_on = ("flip-on-small-cut", {"cut": len(cand.edges)})
        return ThetaVerdict(verdict.contains, (flipped_on,) + verdict.trace)
    res = _linking_paths_cut(h, view)
    if isinstance(res, ThetaFound):
        return ThetaVerdict(True, ((res.rule, {"n": h.n, "m": h.m}),))
    return _two_odd_block(h, view, res)


def _one_odd_block(g: Graph, view: OddEdgeView) -> ThetaVerdict:
    """Decide skewed-theta presence in g, the block of the one odd-class
    edge e, or in a block with no odd-class edge.

    Lemma.  Let B be a 2-connected subcubic graph whose bipartition has
    exactly one odd-class edge e.  B has a skewed theta iff two degree-3
    vertices a, b on opposite sides are joined by three edge-disjoint
    paths.  Every odd cycle passes through e, so B is e's block here.

    Proof sketch.  A cycle is odd iff it contains e, so relative to the
    sides an a-b path is odd iff it avoids e xor a and b lie on opposite
    sides.  So a theta is skewed iff its branch vertices lie on opposite
    sides and e lies on it, which gives (=>).  (<=) In a subcubic graph
    three edge-disjoint a-b paths are internally disjoint, so they form a
    theta T.  If T misses e, 2-connectivity gives a T-ear Q
    through e, which cannot end at a or b (their edges all lie on T).  If
    Q ends on one path of T, rerouting that path through Q gives a skewed
    theta.  If Q ends at p on P1 and q on P2, then (a, q) and (b, q) each
    span a theta through e (P2 split at q, P1 up to p followed by Q, and
    the third path extended along the rest of P2), and q is on the
    opposite side of a or of b.

    Edge connectivity is transitive, so the test refines the degree-3
    vertices into classes joined by three edge-disjoint paths.  A class on
    one side only is dropped; otherwise a minimum edge cut separates its
    first member r from a member v on the other side: three edges name the
    pair (r, v), fewer split every class by the sides of the cut.  Each
    small cut adds a class, so at most one flow per degree-3 vertex, of at
    most three augmenting paths, runs: O(n * m) in all, and no flow when
    the lemma already answers no, with every degree-3 vertex on one side.
    The pair is reported in g's vertices.
    """
    if not view.odd_edges:
        return ThetaVerdict(False, (("no-odd-edge", {"n": g.n}),))
    trace: list[tuple[str, dict]] = []
    cubic = [v for v in range(g.n) if g.degree(v) == 3]
    if len({view.labels[v] for v in cubic}) < 2:
        trace.append(("one-sided-branch-vertices", {"n": g.n, "cubic": len(cubic)}))
        return ThetaVerdict(False, tuple(trace))
    pair = _opposite_side_branch_pair(g, view.labels, cubic)
    if pair is not None:
        trace.append(("opposite-side-branch-pair", {"pair": list(pair)}))
        return ThetaVerdict(True, tuple(trace))
    trace.append(("no-opposite-side-branch-pair", {"n": g.n, "cubic": len(cubic)}))
    return ThetaVerdict(False, tuple(trace))


def _opposite_side_branch_pair(g: Graph, labels, cubic: list[int]) -> tuple[int, int] | None:
    """Two opposite-side vertices of `cubic` joined by three edge-disjoint
    paths, or None (see `_one_odd_block`)."""
    classes = [cubic]
    while classes:
        members = classes.pop()
        r = members[0]
        v = next((w for w in members if labels[w] != labels[r]), None)
        if v is None:
            continue
        cut = min_edge_cut_between(g, {r}, {v})
        if len(cut.edges) >= 3:
            return r, v
        classes = [
            part
            for cls in classes + [members]
            for part in (
                [w for w in cls if w in cut.side_a],
                [w for w in cls if w not in cut.side_a],
            )
            if len(part) > 1
        ]
    return None


def _linking_paths_cut(h: Graph, view: OddEdgeView) -> ThetaFound | EdgeCut:
    """With exactly two disjoint odd-class edges o1, o2 in a 2-connected
    subcubic h, either certify a theta or return a minimal exact cut
    containing both odd edges and at most two others: link o1 and o2 by
    disjoint paths p1, p2 and take a minimum edge cut between them.

    Five edge-disjoint connections between the two linking paths force
    three pairwise-crossing disjoint connections, two of which attach to
    the first path in equal classes and close a skewed theta.

    Odd edges sharing a vertex s never get here: `_few_odd_block` runs
    `small_flip_cut` first, and it always finds a cut for them.  If
    deg(s) = 2, removing o1 and o2 isolates s, so {o1, o2} is the cut.
    If deg(s) = 3, either h - {o1, o2} is disconnected and {o1, o2} is
    the cut, or the third edge at s is a bridge of h - {o1, o2} on both
    paths joining the ends of o1 and of o2, since s has no other edge
    there.  Overlapping terminals raise `GraphInputError` in the flow.
    """
    o1, o2 = view.odd_edges
    paths = vertex_disjoint_paths(h, set(o1), set(o2), 2)
    check(paths is not None, "2-connected graph links the odd edges disjointly")
    p1, p2 = paths
    cut = min_edge_cut_between(h, set(p1), set(p2))
    check(o1 in cut.edges and o2 in cut.edges, "cut separates the odd edge endpoints")
    if len(cut.edges) >= 5:
        return ThetaFound("five-connections-between-linking-paths")
    return cut


def _two_odd_block(h: Graph, view: OddEdgeView, f: EdgeCut) -> ThetaVerdict:
    """Decide skewed-theta presence in a 2-connected h with exactly two
    odd-class edges o1, o2 and no small flip cut, given the four-edge
    exact cut f through both that `_linking_paths_cut` returned: probe
    one-edge removals through `decide_few_odd_edges`, then pair the cut
    edges across each side of f and split along it into two strictly
    smaller two-odd instances whose replacement paths preserve parity.

    Lemma.  Let f = {o1, o2, e1, e2} with sides C1, C2.  Every edge inside
    a side is even-class, so a side path from s to t is odd iff
    labels[s] != labels[t].  A pairing of Ci matches o1 and o2 with e1
    and e2, realised by disjoint paths inside Ci between their ends; let
    Ri be the realisable pairings of Ci.  Then h has two disjoint odd
    cycles iff R1 and R2 meet.  An odd cycle holds exactly one odd-class
    edge and crosses f an even number of times, so it is one oj, one ek
    and a path in each side, and two disjoint ones realise the same
    pairing on both sides.  Conversely, a pairing realised on both sides
    closes two disjoint odd cycles.

    One 2-path flow per side finds some Pi in Ri.  If P1 = P2, h has two
    disjoint odd cycles, and in a 2-connected graph they span a skewed
    theta.  Otherwise child i keeps Ci, and the far side's pairing
    replaces each detour (oj, a far-side path, an even cut edge) by one
    edge when it is odd and by two when it is even.  A child theta maps
    back to h through the detours, so no child answers yes wrongly.  If
    R1 and R2 are disjoint, then Ri = {Pi}, and the children are those of
    the unique pairings, complete because after the probes every theta
    uses all of f.  If R1 and R2 meet although P1 != P2, some Ri holds
    both pairings.  Child i then holds two disjoint odd cycles, closed by
    the far side's pairing and joined by Pi's paths, so it has a skewed
    theta, as h does.  So the flows give every verdict that the
    exhaustive pairing gives, and the trace differs only in that case.

    The exhaustive linkage and disjoint-odd-cycle searches of `parity`
    are references for the tests, not steps of this decision.
    """
    o1, o2 = view.odd_edges
    trace: list[tuple[str, dict]] = []
    f.validate_against(h)
    check(len(f.edges) == 4, "with no small flip cut the given cut has four edges")
    e1, e2 = sorted(f.edges - {o1, o2})

    # single-edge-removal probes: afterwards every theta uses all of f
    for edge in (o1, o2, e1, e2):
        probe = h.without_edge(*edge)
        pview = make_view(probe, view.labels)
        if edge in (o1, o2):
            rule = "probe-without-odd-edge"
        else:
            rule = "probe-without-even-edge"
            pview = flip(pview, exact_cut(probe, f.side_a))
            check(len(pview.odd_edges) == 1, "probe flip leaves one odd edge")
        verdict = decide_few_odd_edges(probe, pview)
        trace.append((rule, {"edge": list(edge)}))
        trace.extend(verdict.trace)
        if verdict.contains:
            return ThetaVerdict(True, tuple(trace))

    split = _split_along_cut(h, view, f, o1, o2, e1, e2)
    if split is None:
        trace.append(("two-disjoint-odd-cycles", {}))
        return ThetaVerdict(True, tuple(trace))
    for child, _ in split:
        check(child.m < h.m, "split sides lose edges")
        trace.append(("split-side", {"n": child.n, "m": child.m}))
    check(
        split[0][0].m + split[1][0].m <= h.m + 4,
        "split sides stay within the additive edge bound",
    )
    for child, cview in split:
        verdict = decide_few_odd_edges(child, cview)
        trace.extend(verdict.trace)
        if verdict.contains:
            return ThetaVerdict(True, tuple(trace))
    return ThetaVerdict(False, tuple(trace))


def small_flip_cut(h: Graph, view: OddEdgeView) -> EdgeCut | None:
    """An exact cut inside {o1, o2, one even edge} holding both odd-class
    edges of a 2-connected h, or None; flipping it leaves at most one odd
    edge.

    The cut is {o1, o2} when R = h - {o1, o2} is disconnected.  Otherwise
    it is {o1, o2, e} for the least even edge e that is a bridge of R and
    separates the ends of both odd edges in R, that is, lies on a path
    joining each pair of ends.  Its side is the component holding vertex
    0.  One block pass and two BFS paths over R: O(m).
    """
    o1, o2 = view.odd_edges
    rest = h.without_edges((o1, o2))
    if rest.is_connected():
        bridges = {(min(b), max(b)) for b in blocks(rest) if len(b) == 2}
        for x, y in (o1, o2):
            bridges &= set(path_edges(bfs_path(rest, {x}, {y})))
        if not bridges:
            return None
        rest = rest.without_edge(*min(bridges))
    comps = rest.connected_components()
    check(len(comps) == 2, "a small cut of a 2-connected graph leaves two sides")
    cut = exact_cut(h, comps[0])
    check(o1 in cut.edges and o2 in cut.edges, "the small cut carries both odd edges")
    return cut


def _side_partner(rest: Graph, x: int, y: int, a: int, b: int) -> int | None:
    """The one of a, b that x reaches when disjoint paths in `rest` join
    x and y to a and b, or None if no such paths exist.  A vertex shared
    by {x, y} and {a, b} is a trivial path, and one BFS avoiding it links
    the other two; otherwise one 2-path flow finds the pairing."""
    shared = {x, y} & {a, b}
    if shared:
        s = min(shared)
        t, t_end = (y if s == x else x), (b if s == a else a)
        if bfs_path(rest, {t}, {t_end}, banned_vertices={s}) is None:
            return None
        return s if s == x else t_end
    paths = vertex_disjoint_paths(rest, {x, y}, {a, b}, 2)
    if paths is None:
        return None
    return next(p[-1] for p in paths if p[0] == x)


def _split_along_cut(h, view, f, o1, o2, e1, e2):
    """Pair the cut edges inside each side (see `_two_odd_block`); None
    when both sides pair o1 with the same even edge, else the two
    replacement sides as (graph, view) pairs.  Each keeps one cut side
    and replaces the far detours by one- or two-edge paths of the far
    paths' parity class, read from the labels."""
    rest = h.without_edges(f.edges)
    labels = view.labels
    sides = []
    for side in (f.side_a, f.side_b):
        x, y, a, b = (next(w for w in e if w in side) for e in (o1, o2, e1, e2))
        u = _side_partner(rest, x, y, a, b)
        check(u is not None, "each cut side links its odd ends to its even ends")
        sides.append((side, x, y, u, b if u == a else a, u == a))
    (c1, x1, y1, u1, v1, x1_on_e1), (c2, x2, y2, u2, v2, x2_on_e1) = sides
    if x1_on_e1 == x2_on_e1:
        return None

    def parity(s, t):
        return int(labels[s] != labels[t])

    # x1's far detour runs o1, x2 ~ u2 and u2's cut edge back to v1
    return [
        _one_side_graph(h, view, c1, x1, y1, (x2, parity(x2, u2), v1), (y2, parity(y2, v2), u1)),
        _one_side_graph(h, view, c2, x2, y2, (x1, parity(x1, u1), v2), (y1, parity(y1, v1), u2)),
    ]


def _one_side_graph(h, view, keep_side, x_k, y_k, p_repl, q_repl):
    """Assemble one side plus its two parity-preserving replacement paths.

    p_repl = (far odd endpoint, parity of the far connection, near even
    endpoint): odd parity becomes a direct odd-class edge, even parity
    keeps the far odd endpoint as a middle vertex.
    """
    vertices = set(keep_side)
    extra_edges: list[tuple[int, int]] = []
    for near, (far_mid, parity, even_end) in ((x_k, p_repl), (y_k, q_repl)):
        if parity == 1:
            extra_edges.append((near, even_end))
        else:
            vertices.add(far_mid)
            extra_edges.append((near, far_mid))
            extra_edges.append((far_mid, even_end))
    order = sorted(vertices)
    old_to_new = {v: i for i, v in enumerate(order)}
    es = {
        edge_key(old_to_new[a], old_to_new[b])
        for a, b in h.edges
        if a in old_to_new and b in old_to_new and a in keep_side and b in keep_side
    }
    for a, b in extra_edges:
        es.add(edge_key(old_to_new[a], old_to_new[b]))
    child = Graph(len(order), sorted(es))
    labels = [view.labels[v] for v in order]
    cview = make_view(child, labels)
    check(len(cview.odd_edges) == 2, "split side keeps exactly two odd edges")
    check(child.is_subcubic(), "split side stays subcubic")
    return child, cview


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def has_skewed_theta(h: Graph) -> ThetaVerdict:
    """Decide whether a subcubic graph contains a skewed theta.

    A BFS 2-colouring of h with no odd-class edge answers at once (rule
    `bipartite`): a skewed theta's odd and even paths close an odd cycle.
    Otherwise, per 2-connected block: start from a BFS spanning-tree
    2-colouring (h's own when the block is h), reduce the odd-class edge
    count through triad cuts and flips, then dispatch the remaining
    at-most-two odd edges.  The verdict is the disjunction over blocks.
    """
    if not h.is_subcubic():
        raise GraphInputError("skewed-theta detection expects a subcubic graph")
    whole = spanning_tree_view(h)
    if not whole.odd_edges:
        return ThetaVerdict(False, (("bipartite", {"n": h.n, "m": h.m}),))
    trace: list[tuple[str, dict]] = []
    parts = blocks(h)
    for blk in parts:
        if len(blk) < 5:
            continue  # a skewed theta needs five vertices
        sub = h.induced(blk)[0] if len(blk) < h.n else h
        trace.append(("block", {"vertices": sorted(blk)}))
        view = whole if sub is h else spanning_tree_view(sub)
        while len(view.odd_edges) >= 3:
            o1, o2, o3 = view.odd_edges[:3]
            res = triads(sub, view, o1, o2, o3)
            if isinstance(res, ThetaFound):
                trace.append((res.rule, {"n": sub.n, "m": sub.m}))
                return ThetaVerdict(True, tuple(trace))
            before = len(view.odd_edges)
            view = flip(view, res)
            trace.append(("flip", {"odd": len(view.odd_edges)}))
            check(len(view.odd_edges) < before, "flip must make progress")
        verdict = _few_odd_block(sub, view)
        trace.extend(verdict.trace)
        if verdict.contains:
            return ThetaVerdict(True, tuple(trace))
        trace.append(("no-remaining-odd-structure", {"n": sub.n, "m": sub.m}))
    trace.append(("all-blocks-clear", {"blocks": len(parts)}))
    return ThetaVerdict(False, tuple(trace))
