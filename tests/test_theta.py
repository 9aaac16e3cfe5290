import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import (
    glued_two_odd_instances,
    golden_theta_roots,
    split_family,
    two_odd_edge_instances,
)

from tperfect import parity, theta
from tperfect.core import (
    Graph,
    claw,
    complete_graph,
    cycle_graph,
    exact_cut,
    path_graph,
    theta_graph,
)
from tperfect.core.connectivity import blocks
from tperfect.corpus import random_subcubic_graph
from tperfect.errors import GraphInputError
from tperfect.oracle import has_skewed_theta_bruteforce
from tperfect.theta import (
    ThetaFound,
    crossing_on_cycle,
    decide_few_odd_edges,
    flip,
    has_skewed_theta,
    make_view,
    small_flip_cut,
    spanning_tree_view,
    triads,
)


class TestFlip:
    def test_square_with_opposite_cut(self):
        g = cycle_graph(4)
        view = make_view(g, (0,) * g.n)
        assert len(view.odd_edges) == 4
        cut = exact_cut(g, {0, 1})  # edges (1,2) and (0,3)
        new = flip(view, cut)
        assert len(new.odd_edges) == 2
        assert set(new.odd_edges) == {(0, 1), (2, 3)}

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        view = make_view(g, (0,) * g.n)
        new = flip(view, exact_cut(g, {0}))
        assert not new.odd_edges

    def test_balanced_cut_rejected(self):
        g = cycle_graph(4)
        labels = [0, 0, 1, 0]
        view = make_view(g, labels)
        cut = exact_cut(g, {0, 3})
        with pytest.raises(GraphInputError):
            flip(view, cut)

    def test_make_view_checks_its_labels(self):
        # the bipartition written 0/2 leaves two odd edges for phase two,
        # where flip's `^= 1` would make a third colour
        g = theta_graph(2, 3, 3)
        labels = spanning_tree_view(g).labels
        with pytest.raises(GraphInputError, match="labels must be 0 or 1"):
            make_view(g, [2 * x for x in labels])
        with pytest.raises(GraphInputError, match="must label every vertex"):
            make_view(g, labels[:-1])

    def test_make_view_and_flip_build_no_graph(self, monkeypatch):
        # only triads reads the even graph, so it is built on request
        g = cycle_graph(4)
        cut = exact_cut(g, {0, 1})
        builds = []
        fill = Graph._fill
        monkeypatch.setattr(
            Graph, "_fill", lambda h, n, edges: builds.append(n) or fill(h, n, edges)
        )
        view = make_view(g, (0,) * g.n)
        flipped = flip(view, cut)
        assert builds == []
        assert flipped.even_graph().edges == ((0, 3), (1, 2)) and builds == [4]

    def test_parity_bookkeeping_on_sampled_cycles(self):
        # any cycle is odd exactly when it carries an odd number of
        # odd-class edges, for every bipartition: sampled via fundamental
        # cycles of random subcubic graphs under random bipartitions
        from conftest import bfs_spanning_tree, spanning_tree_fundamental_cycle

        from tperfect.core.graph import edge_key, path_edges

        rnd = random.Random(4)
        sampled = 0
        while sampled < 60:
            g = random_subcubic_graph(rnd, rnd.randint(4, 12))
            if not g.is_connected():
                continue
            tree = bfs_spanning_tree(g)
            non_tree = [e for e in g.edges if e not in tree]
            if not non_tree:
                continue
            labels = [rnd.randint(0, 1) for _ in range(g.n)]
            view = make_view(g, labels)
            for e in non_tree[:3]:
                cyc = spanning_tree_fundamental_cycle(g, Graph(g.n, tree), e)
                edges = path_edges(cyc) + [edge_key(*e)]
                odd_count = sum(1 for f in edges if view.is_odd(f))
                assert len(edges) % 2 == odd_count % 2
                sampled += 1


class TestSpanningTreeView:
    def test_start_state_on_random_blocks(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(5150)
        kinds = Counter()
        while sum(kinds.values()) < 500:
            g = random_subcubic_graph(rnd, rnd.randint(3, 40))
            if rnd.random() < 0.5:
                # keep the edges across a random bipartition
                side = [rnd.randint(0, 1) for _ in range(g.n)]
                g = Graph(g.n, [e for e in g.edges if side[e[0]] != side[e[1]]])
            blk = max(blocks(g), key=len)
            if len(blk) < 3:
                continue
            h, _ = g.induced(blk)
            view = spanning_tree_view(h)
            assert view.even_graph().is_connected()
            assert len(view.odd_edges) <= h.m - h.n + 1
            assert (len(view.odd_edges) == 0) == h.is_bipartite()
            # an independent reference: the view and is_bipartite share one BFS
            assert h.is_bipartite() == nx.is_bipartite(nx.Graph(h.edges))
            kinds[h.is_bipartite()] += 1
        assert kinds[True] >= 50 and kinds[False] >= 50

    def test_odd_cycle_with_two_chord(self):
        # C11 plus the chord (0, 2): the triangle 0-1-2 is odd and the
        # cycle through the chord is even, so the triangle's non-tree
        # edge is the one odd-class edge
        n = 11
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)])
        assert spanning_tree_view(g).odd_edges == ((1, 2),)


class TestCrossing:
    def test_interleaved_chords(self):
        cyc = list(range(8))
        assert crossing_on_cycle(cyc, [0, 4], [2, 6])

    def test_nested_chords(self):
        cyc = list(range(8))
        assert not crossing_on_cycle(cyc, [0, 2], [4, 6])

    def test_attached_paths(self):
        cyc = list(range(6))
        assert crossing_on_cycle(cyc, [0, 9, 3], [1, 8, 4])

    def test_endpoint_off_cycle_rejected(self):
        with pytest.raises(GraphInputError):
            crossing_on_cycle([0, 1, 2, 3], [0, 9], [1, 3])


class TestTriads:
    def test_disconnected_even_graph_rejected(self):
        # two triangles joined by odd edges only: the trivial bipartition
        # makes the even graph empty, a view phase one never reaches
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4)])
        view = make_view(g, (0,) * g.n)
        with pytest.raises(GraphInputError, match="connected even graph"):
            triads(g, view, *view.odd_edges[:3])

    def test_phase_one_keeps_the_even_graph_connected(self, monkeypatch):
        # every view that has_skewed_theta hands to triads has a connected
        # even graph: the spanning-tree start, then flips of minimum cuts
        calls = 0
        fn = theta.triads

        def checked(h, view, *odds):
            nonlocal calls
            calls += 1
            assert view.even_graph().is_connected(), (h.edges, view.labels)
            return fn(h, view, *odds)

        monkeypatch.setattr(theta, "triads", checked)
        rnd = random.Random(2121)
        seen = 0
        while seen < 2000:
            g = random_subcubic_graph(rnd, rnd.randint(10, 40))
            if g.is_bipartite():
                continue
            has_skewed_theta(g)
            seen += 1
        assert calls > 1500, calls

    def test_edge_disjoint_fundamental_cycles_found(self):
        # an eight-cycle with three odd chords; the first two chords close
        # edge-disjoint odd triangles
        g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(2, 4), (5, 7), (1, 3)])
        labels = [0, 1, 0, 1, 0, 1, 0, 1]
        view = make_view(g, labels)
        odd = view.odd_edges
        assert len(odd) == 3
        res = triads(g, view, *odd)
        assert isinstance(res, ThetaFound)
        assert has_skewed_theta_bruteforce(g)

    def test_returned_cut_contract(self):
        # run full phase-one loops, from phase one's spanning-tree start,
        # over random subcubic blocks and check every returned cut has
        # more odd than even edges
        rnd = random.Random(12)
        checked = cuts = 0
        while checked < 400:
            g = random_subcubic_graph(rnd, rnd.randint(6, 12))
            from tperfect.core.connectivity import blocks

            blk = max(blocks(g), key=len)
            if len(blk) < 5:
                continue
            sub, _ = g.induced(blk)
            view = spanning_tree_view(sub)
            while len(view.odd_edges) >= 3:
                res = triads(sub, view, *view.odd_edges[:3])
                if isinstance(res, ThetaFound):
                    break
                n_odd = view.count_odd(res.edges)
                assert n_odd > len(res.edges) - n_odd
                before = len(view.odd_edges)
                view = flip(view, res)
                assert len(view.odd_edges) < before
                cuts += 1
            checked += 1
        assert cuts > 40, cuts


class TestTwoOdd:
    def test_cycle_cut_is_the_odd_pair(self):
        g = cycle_graph(6)
        labels = [0, 0, 1, 0, 0, 1]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1), (3, 4))
        res = theta._linking_paths_cut(g, view)
        assert not isinstance(res, ThetaFound)
        assert res.edges == frozenset({(0, 1), (3, 4)})

    def test_ladder_with_subdivided_rungs_cut(self):
        # derived: ladder with two subdivided middle rungs; the flow cut
        # has four edges and carries both odd ends
        top = [(0, 1), (1, 2), (2, 3)]
        bottom = [(4, 5), (5, 6), (6, 7)]
        rungs = [(1, 8), (8, 5), (2, 9), (9, 6)]
        ends = [(0, 4), (3, 7)]
        g = Graph(10, top + bottom + rungs + ends)
        labels = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 4), (3, 7))
        res = theta._linking_paths_cut(g, view)
        assert not isinstance(res, ThetaFound)
        assert len(res.edges) <= 4
        assert {(0, 4), (3, 7)} <= set(res.edges)

    def test_five_connections_give_theta(self):
        # derived: two horizontal paths, end edges odd, three length-2 rungs
        top = [(0, 1), (1, 2), (2, 3), (3, 4)]
        bottom = [(5, 6), (6, 7), (7, 8), (8, 9)]
        rungs = [(1, 10), (10, 6), (2, 11), (11, 7), (3, 12), (12, 8)]
        ends = [(0, 5), (4, 9)]
        g = Graph(13, top + bottom + rungs + ends)
        labels = [0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 5), (4, 9))
        res = theta._linking_paths_cut(g, view)
        assert res == ThetaFound("five-connections-between-linking-paths")
        assert has_skewed_theta_bruteforce(g)
        # phase two's entry reaches the same rule: no small cut comes first
        assert small_flip_cut(g, view) is None
        assert decide_few_odd_edges(g, view).trace == (
            ("five-connections-between-linking-paths", {"n": 13, "m": 16}),
        )

    def test_separate_blocks_dispatch(self):
        # two triangles joined by a bridge, one odd edge in each triangle:
        # the dispatcher sends each triangle block to the one-odd-edge test
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        labels = [0, 0, 1, 0, 0, 1]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1), (3, 4))
        verdict = decide_few_odd_edges(g, view)
        assert not verdict.contains
        assert [rule for rule, _ in verdict.trace] == [
            "one-sided-branch-vertices",
            "one-sided-branch-vertices",
            "no-remaining-odd-structure",
        ]
        assert not has_skewed_theta_bruteforce(g)

    def test_split_instrumentation(self):
        # an instance that reaches the divide step: sizes obey the
        # additive bound, verified indirectly by the asserts staying quiet
        rnd = random.Random(77)
        exercised = 0
        while exercised < 25:
            g = random_subcubic_graph(rnd, rnd.randint(8, 14))
            verdict = has_skewed_theta(g)
            if any(rule == "split-side" for rule, _ in verdict.trace):
                exercised += 1
            assert verdict.contains == has_skewed_theta_bruteforce(g)


class TestTwoOddSplit:
    def test_split_runs_without_the_exhaustive_linkage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exhaustive linkage called")

        monkeypatch.setattr(parity, "find_two_disjoint_paths", refuse)
        monkeypatch.setattr(theta, "find_two_disjoint_paths", refuse)
        monkeypatch.setattr(theta, "has_two_disjoint_odd_cycles", refuse)
        for k in (0, 1, 3, 6, 12, 25):
            assert not has_skewed_theta(split_family(k)).contains
        rnd = random.Random(3131)
        instances = list(two_odd_edge_instances(rnd, 1500))
        instances += glued_two_odd_instances(rnd, 1500)
        splits = 0
        for h, view in instances:
            verdict = decide_few_odd_edges(h, view)
            splits += any(rule == "split-side" for rule, _ in verdict.trace)
            has_skewed_theta(h)
        assert splits >= 50, splits

    def test_shared_terminal_pairs_by_one_search(self):
        # a side where the odd cut edge at x and an even cut edge meet: x
        # is a trivial path, and y reaches the other even end avoiding x
        rest = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert theta._side_partner(rest, 0, 3, 0, 2) == 0
        assert theta._side_partner(rest, 3, 0, 2, 0) == 2
        assert theta._side_partner(rest, 2, 0, 1, 2) == 2
        assert theta._side_partner(rest, 1, 3, 0, 1) is None
        assert theta._side_partner(rest, 0, 2, 2, 3) is None
        # no shared vertex: the flow's pairing on a path is forced
        assert theta._side_partner(rest, 1, 2, 0, 3) == 0
        assert theta._side_partner(rest, 0, 3, 1, 2) == 1


def _all_even_edges_small_cut(h, view):
    """Reference for `small_flip_cut`: one probe graph per even edge, in
    edge order."""
    o1, o2 = view.odd_edges
    even_edges = [e for e in h.edges if not view.is_odd(e)]
    for extra in [None] + even_edges:
        removal = {o1, o2} | ({extra} if extra else set())
        comps = h.without_edges(removal).connected_components()
        for comp in comps if len(comps) > 1 else ():
            cand = exact_cut(h, comp)
            n_odd = view.count_odd(cand.edges)
            if n_odd > len(cand.edges) - n_odd:
                return cand
    return None


class TestSmallFlipCut:
    def test_matches_the_all_even_edges_scan(self):
        rnd = random.Random(6060)
        kinds = Counter()
        for h, view in two_odd_edge_instances(rnd, 2000):
            expected = _all_even_edges_small_cut(h, view)
            assert small_flip_cut(h, view) == expected, (h.edges, view.labels)
            kinds[len(expected.edges) if expected else None] += 1
        # {o1, o2} alone, {o1, o2} plus a bridge, and no small cut
        assert kinds[2] >= 100 and kinds[3] >= 500 and kinds[None] >= 500, kinds

    def test_odd_edges_sharing_a_vertex_always_have_a_small_cut(self):
        # the proof in `_linking_paths_cut`: phase two never sends it two
        # odd edges with a shared end, and its flow would refuse them
        rnd = random.Random(5)
        adjacent = 0
        for h, view in two_odd_edge_instances(rnd, 4000):
            o1, o2 = view.odd_edges
            if set(o1) & set(o2):
                assert small_flip_cut(h, view) is not None, (h.edges, view.labels)
                adjacent += 1
        assert adjacent >= 1000
        g = cycle_graph(4)
        view = make_view(g, [0, 0, 0, 1])
        assert view.odd_edges == ((0, 1), (1, 2))
        assert small_flip_cut(g, view).edges == {(0, 1), (1, 2)}
        with pytest.raises(GraphInputError):
            theta._linking_paths_cut(g, view)

    def test_bridge_separating_one_odd_edge_is_skipped(self):
        # h - {o1, o2} is a path 0-1-2-3-4-5; the bridge (0, 1) separates
        # only the ends of o1 = (0, 2), so the cut comes from (1, 2)
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 5)])
        view = make_view(g, [0, 1, 0, 1, 0, 1])
        assert view.odd_edges == ((0, 2), (1, 5))
        cut = small_flip_cut(g, view)
        assert cut == _all_even_edges_small_cut(g, view)
        assert cut.edges == {(0, 2), (1, 2), (1, 5)}


class TestOneOddEdge:
    def test_triangle_exits_small(self):
        g = complete_graph(3)
        labels = [0, 0, 1]
        view = make_view(g, labels)
        assert len(view.odd_edges) == 1
        assert not decide_few_odd_edges(g, view).contains

    def test_two_connected_after_branch_removal(self):
        # derived: a square 1-2-4-3 with vertex 0 wired to 1, 2, 3; after
        # deleting 0 the rest is 2-connected, certifying a theta
        g = Graph(5, [(1, 2), (2, 4), (4, 3), (3, 1), (0, 1), (0, 2), (0, 3)])
        labels = [0, 0, 1, 1, 0]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1),)
        verdict = decide_few_odd_edges(g, view)
        assert verdict.contains
        assert has_skewed_theta_bruteforce(g)
        assert ("opposite-side-branch-pair", {"pair": [0, 2]}) in verdict.trace

    def test_line_four_instance(self):
        # x adjacent to a 4-cycle at y and two middles: removing x leaves
        # a 2-connected graph, certifying a theta
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 5), (5, 3)])
        # odd edge 0-4? build: vertices 0=x; check bipartition exists
        found = None
        for mask in range(1 << 6):
            labels = [(mask >> v) & 1 for v in range(6)]
            view = make_view(g, labels)
            if len(view.odd_edges) == 1:
                found = view
                break
        if found is not None:
            assert decide_few_odd_edges(g, found).contains == has_skewed_theta_bruteforce(g)

    def test_reduction_preserves_verdict(self):
        # suppressing a degree-2 odd pair keeps the answer; verified
        # against the oracle on the shaped instance
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 2)])
        labels = [1, 0, 1, 0, 0, 0]
        view = make_view(g, labels)
        assert view.odd_edges == ((4, 5),)
        verdict = decide_few_odd_edges(g, view)
        assert verdict.contains == has_skewed_theta_bruteforce(g)
        assert any(rule == "one-sided-branch-vertices" for rule, _ in verdict.trace)


    def test_oracle_sweep_of_one_odd_edge_instances(self):
        # a random subcubic graph keeps the edges that a 2-colouring of a
        # BFS forest makes even-class, plus one odd-class edge e: the
        # colouring is then a 2-colouring of G - e
        rnd = random.Random(4141)
        kinds = Counter()
        while sum(kinds.values()) < 6000:
            g = random_subcubic_graph(rnd, rnd.randint(4, 14))
            labels = spanning_tree_view(g).labels
            odd = [e for e in g.edges if labels[e[0]] == labels[e[1]]]
            if not odd:
                continue
            e = rnd.choice(odd)
            h = Graph(g.n, [f for f in g.edges if f not in odd or f == e])
            view = make_view(h, labels)
            assert view.odd_edges == (e,)
            verdict = decide_few_odd_edges(h, view)
            assert verdict.contains == has_skewed_theta_bruteforce(h), h.edges
            # the odd edge's block logs one rule, the other blocks none
            kinds[verdict.trace[0][0]] += 1
        assert kinds["opposite-side-branch-pair"] >= 1000
        assert kinds["one-sided-branch-vertices"] >= 1000
        # degree-3 vertices on both sides but in different classes: the
        # refinement has to split
        assert kinds["no-opposite-side-branch-pair"] >= 20

    @pytest.mark.parametrize("k", [3, 9, 39, 79])
    def test_ring_of_beads_has_no_skewed_theta(self, k):
        # two beads are joined by two ring edges only, so every bead is
        # its own class of three edge-disjoint paths, and each bead has
        # all its degree-3 vertices on one side
        g, labels = _bead_ring(k)
        view = make_view(g, labels)
        assert len(view.odd_edges) == 1
        assert g.n == 14 * k
        verdict = decide_few_odd_edges(g, view)
        assert not verdict.contains
        assert verdict.trace == (
            ("no-opposite-side-branch-pair", {"n": g.n, "cubic": 6 * k}),
            ("no-remaining-odd-structure", {"n": g.n, "m": g.m}),
        )


def _bead_ring(k):
    """k >= 3 beads in a ring, k odd.  Bead i is K4 on side i % 2 with
    two disjoint edges subdivided three times, their middle vertices
    being the ports, and the other four edges subdivided once; a ring
    edge joins the second port of each bead to the first port of the
    next.  Consecutive beads lie on opposite sides, except across the
    closing ring edge, which is the one odd-class edge."""
    edges, labels, ports = [], [], []

    def vertex(side):
        labels.append(side)
        return len(labels) - 1

    for i in range(k):
        s = i % 2
        a = [vertex(s) for _ in range(4)]
        bead_ports = []
        for x, y in ((0, 1), (2, 3)):
            p1, port, p2 = vertex(1 - s), vertex(s), vertex(1 - s)
            edges += [(a[x], p1), (p1, port), (port, p2), (p2, a[y])]
            bead_ports.append(port)
        for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
            mid = vertex(1 - s)
            edges += [(a[x], mid), (mid, a[y])]
        ports.append(bead_ports)
    edges += [(ports[i][1], ports[(i + 1) % k][0]) for i in range(k)]
    return Graph(len(labels), edges), labels


class TestDispatcher:
    def test_zero_odd_edges(self):
        g = cycle_graph(6)
        labels = [v % 2 for v in range(6)]
        view = make_view(g, labels)
        assert not view.odd_edges
        assert not decide_few_odd_edges(g, view).contains

    def test_single_cycle_single_odd_edge(self):
        g = cycle_graph(5)
        labels = [0, 1, 0, 1, 1]
        view = make_view(g, labels)
        assert len(view.odd_edges) == 1
        assert not decide_few_odd_edges(g, view).contains

    def test_rejects_three_odd(self):
        g = complete_graph(3)
        with pytest.raises(GraphInputError):
            decide_few_odd_edges(g, make_view(g, (0,) * g.n))

    def test_pipeline_decomposes_each_block_once(self, monkeypatch):
        # a 5-cycle with the chord 0-2 (a skewed theta on 0 and 2): its BFS
        # 2-colouring leaves the one odd-class edge 1-2, so phase two runs
        # on the block just found
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        assert len(spanning_tree_view(g).odd_edges) == 1
        passes = []
        monkeypatch.setattr(theta, "blocks", lambda h: passes.append(h.n) or blocks(h))
        verdict = has_skewed_theta(g)
        assert passes == [5]
        assert verdict.trace == (
            ("block", {"vertices": [0, 1, 2, 3, 4]}),
            ("opposite-side-branch-pair", {"pair": [0, 2]}),
        )
        # the public entry still restricts to blocks itself
        view = spanning_tree_view(g)
        assert decide_few_odd_edges(g, view).trace == verdict.trace[1:]
        assert passes == [5, 5]


class TestEndToEnd:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (complete_graph(4), False),
            (theta_graph(1, 2, 3), True),
            (theta_graph(2, 3, 3), True),
            (theta_graph(1, 2, 2), False),
            (theta_graph(2, 2, 2), False),
            (path_graph(7), False),
            (cycle_graph(9), False),
            (claw(), False),
        ],
    )
    def test_fixed_instances(self, g, expect):
        assert has_skewed_theta(g).contains is expect

    def test_rejects_non_subcubic(self):
        with pytest.raises(GraphInputError):
            has_skewed_theta(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))

    def test_trace_nonempty(self):
        v = has_skewed_theta(theta_graph(1, 2, 3))
        assert v.trace and v.outcome == "contains-skewed-theta"

    def test_oracle_agreement_random(self):
        rnd = random.Random(2718)
        for _ in range(600):
            g = random_subcubic_graph(rnd, rnd.randint(4, 13))
            assert has_skewed_theta(g).contains == has_skewed_theta_bruteforce(g)


GOLDEN_TRACES = Path(__file__).resolve().parent / "data" / "theta_traces.json"


def golden_record(name, g):
    """One line of `data/theta_traces.json`: the root's name, size and an
    edge digest (so a drifting generator fails loudly) and its trace."""
    return json.dumps(
        {
            "edges": hashlib.sha256(repr(g.edges).encode()).hexdigest()[:16],
            "m": g.m,
            "n": g.n,
            "name": name,
            "trace": [[rule, info] for rule, info in has_skewed_theta(g).trace],
        },
        sort_keys=True,
    )


class TestBipartiteRule:
    def test_traces_of_non_bipartite_roots_match_the_recorded_file(self):
        # recorded before the bipartite rule and the parent-walk cycles:
        # on non-bipartite roots both leave every trace as it was
        want = GOLDEN_TRACES.read_text().splitlines()
        got = [golden_record(name, g) for name, g in golden_theta_roots()]
        assert len(got) == len(want) == 238
        for line, expected in zip(got, want):
            assert line == expected

    def test_bipartite_roots_answer_at_once(self, monkeypatch):
        # a skewed theta's odd and even paths close an odd cycle, so a
        # bipartite root has none; no block pass and no per-block work
        rnd = random.Random(1515)
        calls = Counter()
        for name in ("blocks", "triads", "_few_odd_block"):
            fn = getattr(theta, name)
            monkeypatch.setattr(
                theta, name, lambda *a, _f=fn, _n=name: calls.update([_n]) or _f(*a)
            )
        seen = 0
        while seen < 400:
            g = random_subcubic_graph(rnd, rnd.randint(1, 13))
            if not g.is_bipartite():
                continue
            verdict = has_skewed_theta(g)
            assert verdict.trace == (("bipartite", {"n": g.n, "m": g.m}),)
            assert not verdict.contains and not has_skewed_theta_bruteforce(g)
            seen += 1
        assert calls == Counter()
        assert has_skewed_theta(Graph(0)).trace == (("bipartite", {"n": 0, "m": 0}),)

    def test_a_root_that_is_one_block_is_coloured_once(self, monkeypatch):
        colourings = []
        fn = theta.spanning_tree_view
        monkeypatch.setattr(
            theta, "spanning_tree_view", lambda h: colourings.append(h.n) or fn(h)
        )
        assert has_skewed_theta(split_family(1)).contains is False
        assert colourings == [36]
        # a root of several blocks colours each large block on its own
        colourings.clear()
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
        verdict = has_skewed_theta(g)
        assert colourings == [8, 5]
        assert [rule for rule, _ in verdict.trace][0] == "block"
