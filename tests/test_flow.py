import random
from itertools import combinations

import pytest

from tperfect.core import (
    Graph,
    complete_graph,
    cycle_graph,
    edge_disjoint_paths,
    fan_paths,
    min_edge_cut_between,
    path_graph,
    theta_graph,
    vertex_disjoint_paths,
)
from tperfect.core.graph import path_edges
from tperfect.errors import GraphInputError


def assert_paths_edge_disjoint(paths):
    used = set()
    for p in paths:
        for e in path_edges(p):
            assert e not in used
            used.add(e)


class TestMinCut:
    def test_path(self):
        cut = min_edge_cut_between(path_graph(3), {0}, {2})
        assert len(cut.edges) == 1
        cut.validate_against(path_graph(3))

    def test_complete(self):
        assert len(min_edge_cut_between(complete_graph(4), {0}, {1}).edges) == 3

    def test_theta_branch_vertices(self):
        # derived by hand: three internally disjoint connections
        cut = min_edge_cut_between(theta_graph(2, 3, 3), {0}, {1})
        assert len(cut.edges) == 3

    def test_disconnected_gives_empty_cut(self):
        g = Graph(4, [(0, 1), (2, 3)])
        cut = min_edge_cut_between(g, {0}, {3})
        assert not cut.edges

    def test_sides_partition_and_separate(self):
        g = cycle_graph(8)
        cut = min_edge_cut_between(g, {0, 1}, {4, 5})
        assert cut.side_a | cut.side_b == set(range(8))
        stripped = g.without_edges(cut.edges)
        comp = next(c for c in stripped.connected_components() if 0 in c)
        assert not ({4, 5} & set(comp))

    def test_overlapping_terminals_rejected(self):
        with pytest.raises(GraphInputError):
            min_edge_cut_between(path_graph(3), {0, 1}, {1, 2})

    def test_terminals_outside_the_graph_rejected(self):
        # stray terminals would index past the vertex lists, or wrap
        # around them when negative
        g = path_graph(3)
        for call in (
            lambda: min_edge_cut_between(g, {0}, {5}),
            lambda: min_edge_cut_between(g, {-1}, {2}),
            lambda: edge_disjoint_paths(g, {-1}, {2}, 1),
            lambda: vertex_disjoint_paths(g, {0}, {3}, 1),
            lambda: vertex_disjoint_paths(g, {-2}, {2}, 1),
            lambda: fan_paths(g, 0, {7}, 1),
        ):
            with pytest.raises(GraphInputError, match="vertices of the graph"):
                call()


class TestEdgeDisjointPaths:
    def test_cycle_arcs(self):
        paths = edge_disjoint_paths(cycle_graph(4), {0}, {2}, 2)
        assert paths is not None and len(paths) == 2
        assert_paths_edge_disjoint(paths)

    def test_path_graph_has_no_two(self):
        assert edge_disjoint_paths(path_graph(4), {0}, {3}, 2) is None

    def test_k4_three_paths(self):
        paths = edge_disjoint_paths(complete_graph(4), {0}, {1}, 3)
        assert paths is not None and len(paths) == 3
        assert_paths_edge_disjoint(paths)
        assert all(p[0] == 0 and p[-1] == 1 for p in paths)

    def test_menger_duality_on_random_graphs(self):
        # min-cut/max-flow duality: cut size equals the number of edge-disjoint
        # paths, over all source/sink pairs of random graphs
        rnd = random.Random(13)
        pairs_pool = None
        for _ in range(12):
            n = rnd.randint(4, 12)
            pairs_pool = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pairs_pool if rnd.random() < 0.35])
            for u, v in combinations(range(n), 2):
                cut = min_edge_cut_between(g, {u}, {v})
                k = len(cut.edges)
                assert edge_disjoint_paths(g, {u}, {v}, k) is not None or k == 0
                assert edge_disjoint_paths(g, {u}, {v}, k + 1) is None


class TestVertexDisjointPaths:
    def test_fan_in_k4(self):
        paths = fan_paths(complete_graph(4), 0, {1, 2, 3}, 3)
        assert paths is not None
        assert sorted(p[-1] for p in paths) == [1, 2, 3]

    def test_fan_limited_by_degree(self):
        assert fan_paths(cycle_graph(5), 0, {1, 2, 3}, 3) is None

    def test_fan_paths_share_only_centre(self):
        g = theta_graph(2, 2, 2)
        paths = fan_paths(g, 0, {1}, 1)
        assert paths is not None
        paths = fan_paths(g, 0, set(g.neighbors(0)), 3)
        assert paths is not None
        seen = {}
        for p in paths:
            for v in p[1:]:
                assert v not in seen
                seen[v] = True

    def test_internally_disjoint_between_singletons(self):
        paths = vertex_disjoint_paths(cycle_graph(4), {0}, {2}, 2)
        assert paths is not None and len(paths) == 2
        interiors = [set(p[1:-1]) for p in paths]
        assert not (interiors[0] & interiors[1])

    def test_set_terminals_used_once(self):
        paths = vertex_disjoint_paths(cycle_graph(6), {0, 1}, {3, 4}, 2)
        assert paths is not None
        starts = sorted(p[0] for p in paths)
        ends = sorted(p[-1] for p in paths)
        assert starts == [0, 1] and ends == [3, 4]

    def test_no_path_through_terminal(self):
        # the only 0-3 route through 1 is blocked when 1 is a terminal
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 3)])
        paths = vertex_disjoint_paths(g, {0, 1}, {3}, 1)
        assert paths is not None
