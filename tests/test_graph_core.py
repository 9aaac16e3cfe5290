import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    bfs_spanning_tree,
    cycle_blowup,
    degree_sequence,
    random_graph,
    spanning_tree_fundamental_cycle,
)

from tperfect.core import (
    Graph,
    bfs_path,
    blocks,
    claw,
    complete_graph,
    cycle_graph,
    find_two_separation,
    identify_vertices,
    is_isomorphic_small,
    is_three_connected,
    make_named,
    path_graph,
    squared_cycle,
    squared_cycle_6_minus_edge,
    squared_cycle_minus_vertex,
    theta_graph,
)
from tperfect.core.connectivity import _contracts_to_k4, _low_points
from tperfect.errors import GraphInputError
from tperfect.linegraph import line_graph, recognize_line_graph
from tperfect.recognizer import is_t_perfect
from tperfect.theta import make_view


def nx_graph(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def brute_two_connected(g, vertices):
    """Independent 2-connectivity check for a vertex subset: the induced
    subgraph is connected and stays connected after any single deletion."""
    sub, _ = g.induced(vertices)
    if sub.n < 3:
        return sub.n == 2 and sub.m == 1
    if not sub.is_connected():
        return False
    return all(sub.without_vertex(v)[0].is_connected() for v in range(sub.n))


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphInputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 2)])

    def test_added_edge_out_of_range_is_rejected_in_either_order(self):
        g = path_graph(3)
        for u, v in ((0, 5), (5, 0), (-1, 2), (2, -1)):
            with pytest.raises(GraphInputError, match="out of range"):
                g.with_edge(u, v)

    @pytest.mark.parametrize(
        "transform",
        [
            lambda g: identify_vertices(g, 0, 5),
            lambda g: identify_vertices(g, -1, 1),
            lambda g: g.induced([0, 7]),
            lambda g: g.induced([-1, 0]),
            lambda g: g.without_vertex(9),
            lambda g: bfs_path(g, {-1}, {0}),
            lambda g: bfs_path(g, {0}, {9}),
            lambda g: bfs_path(g, {0}, {2}, banned_vertices={7}),
        ],
        ids=[
            "identify-high", "identify-low", "induced-high", "induced-low", "without-vertex",
            "bfs-source-low", "bfs-target-high", "bfs-banned-high",
        ],
    )
    def test_transformations_reject_vertices_out_of_range(self, transform):
        with pytest.raises(GraphInputError, match="range"):
            transform(Graph(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize(
        "remove",
        [[(0, 2)], [(0, 9)], [(-1, 0)], [(1, 1)], [(0, 1), (2, 0)]],
        ids=["absent", "high", "low", "loop", "one-of-two-absent"],
    )
    def test_edge_removals_reject_edges_the_graph_lacks(self, remove):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphInputError, match="not present"):
            g.without_edges(remove)
        if len(remove) == 1:
            with pytest.raises(GraphInputError, match="not present"):
                g.without_edge(*remove[0])

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        for u, v in g.edges:
            assert v in g.neighbors(u) and u in g.neighbors(v)


def assert_matches_validated(h):
    """h, however it was built, equals the validated build of its edges:
    same sorted edges, same neighbour sets, same ascending neighbour tuples."""
    ref = Graph(h.n, h.edges)
    assert h.edges == ref.edges
    for v in range(h.n):
        assert h.neighbors(v) == ref.neighbors(v)
        assert h.sorted_neighbors(v) == ref.sorted_neighbors(v)
        assert h.sorted_neighbors(v) == tuple(sorted(h.neighbors(v)))


class TestTrustedBuilds:
    def test_every_producer_matches_the_validated_build(self):
        rnd = random.Random(2606)
        roots = 0
        for _ in range(2000):
            n = rnd.randint(1, 12)
            g = random_graph(rnd, n, rnd.uniform(0.1, 0.8))
            assert_matches_validated(g)
            assert_matches_validated(g.induced(rnd.sample(range(n), rnd.randint(0, n)))[0])
            view = make_view(g, [rnd.randint(0, 1) for _ in range(n)])
            assert_matches_validated(view.even_graph())
            if g.m:
                assert_matches_validated(g.without_edge(*rnd.choice(g.edges)))
                assert_matches_validated(g.without_edges(rnd.sample(g.edges, rnd.randint(0, g.m))))
                lg, _ = line_graph(g)
                assert_matches_validated(lg)
                if lg.is_connected():
                    roots += 1
                    assert_matches_validated(recognize_line_graph(lg).root)
            non_edges = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
            if non_edges:
                assert_matches_validated(g.with_edge(*rnd.choice(non_edges)))
            if n >= 2:
                u, v = rnd.sample(range(n), 2)
                assert_matches_validated(identify_vertices(g, u, v)[0])
            if g.is_connected():
                mapping = recognize_line_graph(g)
                if mapping is not None:
                    assert_matches_validated(mapping.root)
        assert roots >= 1000

    def test_transformations_and_the_recognizer_make_no_validated_build(self, monkeypatch):
        patterns = ([2, 1, 1, 2, 1], [2, 1, 2, 1, 1, 1], [1, 2, 1, 1, 2, 1, 1])
        graphs = [cycle_blowup(sizes) for sizes in patterns]
        is_t_perfect(squared_cycle(7))  # builds the fixed exceptional graphs once
        builds = []
        init = Graph.__init__
        monkeypatch.setattr(
            Graph, "__init__", lambda h, *args: builds.append(args) or init(h, *args)
        )
        rules = set()
        for g in graphs:
            g.with_edge(0, g.n // 2)
            g.without_edge(*g.edges[0])
            g.without_edges(g.edges[:3])
            g.induced(range(1, g.n))
            identify_vertices(g, 0, g.n // 2)
            rules.update(e.rule for e in is_t_perfect(g).certificate)
        # the recognizer reached the sides that gain the separator edge
        assert rules & {"separation-odd-one-side", "separation-even-one-side"}
        assert builds == []

    def test_sorted_neighbors_is_a_shared_tuple(self):
        g = Graph(4, [(2, 3), (0, 3), (1, 3)])
        assert g.sorted_neighbors(3) == (0, 1, 2)
        assert g.sorted_neighbors(3) is g.sorted_neighbors(3)


class TestBlocks:
    def test_path_has_bridge_blocks(self):
        g = path_graph(3)
        assert set(blocks(g)) == {frozenset({0, 1}), frozenset({1, 2})}
        assert _low_points(g)[1] == {1}

    def test_bowtie_two_triangles(self):
        # derived oracle: brute-force 2-connectivity of every candidate set
        bow = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        parts = blocks(bow)
        assert set(parts) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
        assert _low_points(bow)[1] == {2}
        for blk in parts:
            assert brute_two_connected(bow, blk)

    def test_cycle_is_one_block(self):
        assert blocks(cycle_graph(5)) == (frozenset(range(5)),)
        assert not _low_points(cycle_graph(5))[1]

    def test_isolated_vertices_are_singleton_blocks(self):
        g = Graph(3, [(0, 1)])
        assert frozenset({2}) in blocks(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**28 - 1), st.integers(2, 8))
    def test_every_edge_in_exactly_one_block(self, mask, n):
        pairs = list(combinations(range(n), 2))
        g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        parts = blocks(g)
        cut = _low_points(g)[1]
        for e in g.edges:
            homes = [b for b in parts if set(e) <= b]
            assert len(homes) == 1
        # pairwise intersections are single cut vertices
        for i, b1 in enumerate(parts):
            for b2 in parts[i + 1 :]:
                shared = b1 & b2
                assert len(shared) <= 1
                assert all(c in cut for c in shared)


class TestConnectivityOrders:
    def test_k4_three_connected(self):
        assert is_three_connected(complete_graph(4))

    def test_cycle_not_three_connected(self):
        assert not is_three_connected(cycle_graph(5))

    def test_squared_cycle_seven_three_connected(self):
        # derived: exhaust all vertex pairs as candidate separators
        g = squared_cycle(7)
        for u, v in combinations(range(7), 2):
            h, _ = g.induced(w for w in range(7) if w not in (u, v))
            assert h.is_connected()
        assert is_three_connected(g)

    def test_small_graphs_report_false(self):
        assert not is_three_connected(complete_graph(3))

    def test_two_triangles_sharing_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert find_two_separation(g) == (0, 1, {2})

    def test_cycle_separation_is_valid_cut(self):
        g = cycle_graph(6)
        u, v, first = find_two_separation(g)
        assert (u, v, first) == (0, 2, {1})
        h, _ = g.induced(w for w in range(6) if w not in (u, v))
        assert not h.is_connected()

    def test_squared_cycle_minus_vertex_is_three_connected(self):
        # derived by exhausting vertex pairs: no pair separates the graph,
        # so there is no order-2 separation to find
        g = squared_cycle_minus_vertex(7)
        for u, v in combinations(range(g.n), 2):
            h, _ = g.induced(w for w in range(g.n) if w not in (u, v))
            assert h.is_connected()
        assert is_three_connected(g)
        assert find_two_separation(g) is None

    def test_disconnected_inputs_have_no_separation(self):
        # vertex 0 isolated; 0 in a component with a separating pair; 0 a
        # cut vertex of its own component; G - 0 connected but g not
        cases = [
            Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)]),
            Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
            Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (4, 5)]),
            Graph(4, [(1, 2), (2, 3)]),
        ]
        for g in cases:
            assert not g.is_connected()
            assert find_two_separation(g) is None
            assert not is_three_connected(g)

    def test_two_connected_blocks_make_no_component_search(self, monkeypatch):
        searches = []
        components = Graph.connected_components
        monkeypatch.setattr(
            Graph,
            "connected_components",
            lambda h: searches.append(h.n) or components(h),
        )
        graphs = [cycle_graph(7), squared_cycle(9), squared_cycle_minus_vertex(9)]
        graphs += [cycle_blowup(sizes) for sizes in ([2, 1, 2, 1, 1], [1, 2, 1, 1, 2, 1, 1])]
        answers = [find_two_separation(g) for g in graphs]
        assert searches == []
        assert [sep is None for sep in answers] == [False, True, True, False, False]


def pair_scan_two_separation(g):
    """Reference for `find_two_separation`: the plain pair scan, which
    builds the induced graph G - {u, v} for every pair u < v in
    lexicographic order and stops at the first disconnected one."""
    if g.n < 4 or not g.is_connected():
        return None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            h, old_to_new = g.induced(w for w in range(g.n) if w not in (u, v))
            comps = h.connected_components()
            if len(comps) <= 1:
                continue
            new_to_old = {i: w for w, i in old_to_new.items()}
            first = {new_to_old[x] for x in comps[0]}
            return u, v, first
    return None


class TestLinearPassConnectivity:
    def test_matches_pair_scan_reference(self):
        rnd = random.Random(31)
        outcomes = {"disconnected": 0, "separated": 0, "three-connected": 0}
        least_pair_at_cut_vertex = proved = 0
        for _ in range(3000):
            n = rnd.randint(1, 14)
            g = random_graph(rnd, n, rnd.uniform(0.1, 0.9))
            want = pair_scan_two_separation(g)
            assert find_two_separation(g) == want
            assert is_three_connected(g) == (
                n >= 4 and g.is_connected() and want is None
            )
            # the contraction certificate proves only what the scan confirms
            certified = _contracts_to_k4(g)
            if not g.is_connected():
                outcomes["disconnected"] += 1
                assert not certified
            elif want is not None:
                outcomes["separated"] += 1
                assert not certified, g.edges
                # G - u is disconnected, so the per-pair scan answered
                if want[0] in _low_points(g)[1]:
                    least_pair_at_cut_vertex += 1
            elif n >= 4:
                outcomes["three-connected"] += 1
                proved += certified
        assert min(outcomes.values()) >= 300, outcomes
        assert least_pair_at_cut_vertex >= 50
        assert proved >= 0.9 * outcomes["three-connected"], (proved, outcomes)

    def test_agrees_with_networkx_node_connectivity(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(47)
        cases = [
            random_graph(rnd, n, rnd.uniform(1.5, 8.0) / n)
            for n in (rnd.randint(1, 40) for _ in range(150))
        ]
        cases += [squared_cycle(n) for n in (5, 6, 7, 8, 9, 10, 13, 25, 50, 100, 200)]
        cases += [
            cycle_blowup([rnd.choice((1, 1, 2, 3)) for _ in range(k)])
            for k in (rnd.randint(4, 12) for _ in range(60))
        ]
        answers, proved = [], 0
        for g in cases:
            answers.append(nx.node_connectivity(nx_graph(g)) >= 3)
            assert is_three_connected(g) == answers[-1], g.edges
            certified = _contracts_to_k4(g)
            assert answers[-1] or not certified, g.edges
            proved += certified
        assert answers.count(True) >= 40 and answers.count(False) >= 40
        assert proved >= 0.9 * answers.count(True), proved

    def test_contraction_certificate_proves_squared_cycles(self):
        # C_n^2 is 3-connected for n >= 5: deleting two vertices leaves at
        # most two arcs of the ring, and the arcs' ends are joined by the
        # chords that jump a deleted vertex
        rnd = random.Random(11)
        for n in range(11, 401):
            perm = list(range(n))
            rnd.shuffle(perm)
            g = Graph(n, [(perm[a], perm[b]) for a, b in squared_cycle(n).edges])
            assert _contracts_to_k4(g), n


class TestSharedSearches:
    """The two searches behind the connectivity questions, against
    networkx: `_low_points` stepping over a vertex, and `Graph._bfs_forest`
    behind the components, bipartiteness and the spanning-tree colouring."""

    def test_low_points_without_a_vertex_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(2024)
        seen = Counter()
        for _ in range(600):
            n = rnd.randint(2, 16)
            g = random_graph(rnd, n, rnd.uniform(1.0, 4.0) / n)
            cuts_of_g = _low_points(g)[1]
            for u in range(g.n):
                raw, cut, trees = _low_points(g, u)
                h = nx_graph(g)
                h.remove_node(u)
                assert cut == set(nx.articulation_points(h)), (g.edges, u)
                assert (trees == 1) == nx.is_connected(h)
                assert trees == nx.number_connected_components(h)
                want = [sorted(b) for b in nx.biconnected_components(h)]
                want += [[v] for v in nx.isolates(h)]
                assert sorted(map(sorted, raw)) == sorted(want), (g.edges, u)
                seen["cut vertex of g"] += u in cuts_of_g
                seen["isolated vertex in G - u"] += nx.number_of_isolates(h) > 0
                seen["G - u connected"] += trees == 1
                seen["G - u disconnected"] += trees > 1
        assert min(seen.values()) >= 500, seen

    def test_bfs_forest_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(77)
        cases = [Graph(0), Graph(1), Graph(4), Graph(5, [(1, 3)])]
        for _ in range(800):
            n = rnd.randint(1, 24)
            cases.append(random_graph(rnd, n, rnd.uniform(0.5, 3.0) / n))
        kinds = Counter()
        for g in cases:
            h = nx_graph(g)
            comps = g.connected_components()
            assert comps == sorted(sorted(c) for c in nx.connected_components(h))
            assert g.is_bipartite() == nx.is_bipartite(h), g.edges
            assert g.is_connected() == (g.n <= 1 or nx.is_connected(h))
            parity = g._bfs_forest()[0]
            for comp in comps:
                depth = nx.single_source_shortest_path_length(h, comp[0])
                assert [parity[v] for v in comp] == [depth[v] % 2 for v in comp]
            kinds[len(comps) > 1, g.is_bipartite()] += 1
        assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds


class TestFundamentalCycles:
    def test_cycle_closure(self):
        g = cycle_graph(4)
        tree = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cyc = spanning_tree_fundamental_cycle(g, tree, (0, 3))
        assert cyc == [0, 1, 2, 3]

    def test_star_tree_triangle(self):
        g = complete_graph(4)
        tree = Graph(4, [(0, 1), (0, 2), (0, 3)])
        cyc = spanning_tree_fundamental_cycle(g, tree, (1, 2))
        assert sorted(cyc) == [0, 1, 2]

    def test_tree_edge_rejected(self):
        g = cycle_graph(4)
        tree = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphInputError):
            spanning_tree_fundamental_cycle(g, tree, (1, 2))

    def test_bfs_tree_spans(self):
        g = squared_cycle(8)
        tree = bfs_spanning_tree(g)
        assert len(tree) == g.n - 1

    def test_bfs_tree_rejects_a_disconnected_graph(self):
        # found by the BFS itself: some vertex is never reached from the root
        for g, root in ((Graph(4, [(0, 1), (2, 3)]), 0), (Graph(3, [(1, 2)]), 1), (Graph(2), 0)):
            with pytest.raises(GraphInputError, match="disconnected"):
                bfs_spanning_tree(g, root)
        assert bfs_spanning_tree(Graph(1)) == set()


class TestIsomorphism:
    def test_relabelled_squared_cycle(self):
        g = squared_cycle(7)
        perm = [3, 6, 2, 0, 5, 1, 4]
        h = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
        assert is_isomorphic_small(g, h)

    def test_vertex_counts_differ(self):
        assert not is_isomorphic_small(squared_cycle(7), squared_cycle_minus_vertex(7))

    def test_k4_vs_claw(self):
        assert not is_isomorphic_small(complete_graph(4), claw())

    def test_agrees_with_permutation_enumeration(self):
        rnd = random.Random(5)
        for trials, n in ((150, 5), (40, 6), (15, 7)):
            pairs = list(combinations(range(n), 2))
            for _ in range(trials):
                g = Graph(n, [e for e in pairs if rnd.random() < 0.5])
                # mix identical-degree-sequence pairs with pure random ones
                if rnd.random() < 0.5:
                    perm = list(range(n))
                    rnd.shuffle(perm)
                    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                else:
                    h = Graph(n, [e for e in pairs if rnd.random() < 0.5])
                hedges = set(h.edges)
                brute = any(
                    {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges} == hedges
                    for perm in permutations(range(n))
                )
                assert is_isomorphic_small(g, h) == brute

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def agree(g, h):
            got = is_isomorphic_small(g, h)
            assert got == nx.is_isomorphic(nx_graph(g), nx_graph(h)), (g.edges, h.edges)
            return got

        def swapped(rnd, g, swaps):
            # degree-preserving double edge swaps: same degree sequence
            es = set(g.edges)
            for _ in range(swaps):
                (a, b), (c, d) = rnd.sample(sorted(es), 2)
                if rnd.random() < 0.5:
                    c, d = d, c
                new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
                if a != d and c != b and len(new) == 2 and not new & es:
                    es -= {tuple(sorted((a, b))), tuple(sorted((c, d)))}
                    es |= new
            return Graph(g.n, es)

        rnd = random.Random(88)
        outcomes = []
        for _ in range(300):
            g = random_graph(rnd, rnd.randint(2, 10), rnd.uniform(0.2, 0.7))
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert agree(g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
            if g.m >= 2:
                h = swapped(rnd, g, 6)
                assert degree_sequence(h) == degree_sequence(g)
                outcomes.append(agree(g, h))
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20

        c10 = squared_cycle(10)
        circulants = [
            Graph(10, {tuple(sorted((i, (i + s) % 10))) for i in range(10) for s in (a, b)})
            for a, b in combinations(range(1, 5), 2)
        ]
        assert sum(agree(h, c10) for h in circulants) == 2  # steps {1,2} and {3,4}

        targets = (squared_cycle_minus_vertex(7), squared_cycle_6_minus_edge())
        pairs = list(combinations(range(6), 2))
        hits = [0, 0]
        for m in (10, 11):
            for es in combinations(pairs, m):
                g = Graph(6, es)
                for i, t in enumerate(targets):
                    if g.m == t.m:
                        hits[i] += agree(g, t)
        assert all(hits)


class TestNamedGraphs:
    def test_squared_cycle_seven(self):
        g = make_named("C2(7)")
        assert g.n == 7 and g.m == 14
        assert degree_sequence(g) == (4,) * 7

    def test_wheel(self):
        g = make_named("W5")
        assert g.n == 6 and max(g.degree(v) for v in range(6)) == 5

    def test_claw(self):
        g = make_named("claw")
        assert g.n == 4 and degree_sequence(g) == (1, 1, 1, 3)

    def test_modular_indexing(self):
        g = squared_cycle(6)
        assert g.has_edge(0, 5) and g.has_edge(0, 4)

    def test_minus_edge_variant(self):
        g = make_named("C2(6)-minus-edge-v1v6")
        assert g.m == squared_cycle(6).m - 1

    def test_invalid_n(self):
        with pytest.raises(GraphInputError):
            make_named("C2(4)")

    def test_unknown_name(self):
        with pytest.raises(GraphInputError):
            make_named("petersen")

    def test_theta_graph_guard(self):
        with pytest.raises(GraphInputError):
            theta_graph(1, 1, 2)


class TestIdentify:
    def test_path_endpoints_collapse_to_edge(self):
        g, mapping = identify_vertices(path_graph(3), 0, 2)
        assert g.n == 2 and g.m == 1
        assert mapping[0] == mapping[2]

    def test_cycle_opposite(self):
        g, _ = identify_vertices(cycle_graph(4), 0, 2)
        assert (g.n, g.m) == (3, 2)

    def test_cycle_nonadjacent_gives_cut_vertex(self):
        g, mapping = identify_vertices(cycle_graph(5), 0, 2)
        assert mapping[0] in _low_points(g)[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.integers(3, 6))
    def test_always_simple(self, mask, n):
        pairs = list(combinations(range(n), 2))
        g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        h, _ = identify_vertices(g, 0, n - 1)
        # identify_vertices builds without validation; check simplicity structurally
        for u in range(h.n):
            assert u not in h.neighbors(u)
        assert len(set(h.edges)) == h.m

    def test_self_identification_rejected(self):
        with pytest.raises(GraphInputError):
            identify_vertices(path_graph(3), 1, 1)
