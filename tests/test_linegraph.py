import random
from itertools import combinations

import pytest
from conftest import cycle_blowup, degree_sequence

from tperfect.core import (
    Graph,
    claw,
    complete_graph,
    cycle_graph,
    is_isomorphic_small,
    path_graph,
    squared_cycle,
    wheel_5,
)
from tperfect.corpus import random_subcubic_graph
from tperfect.errors import GraphInputError
from tperfect.linegraph import line_graph, recognize_line_graph
from tperfect.recognizer import find_claw


class TestLineGraphConstruction:
    def test_path_three(self):
        g, mapping = line_graph(path_graph(3))
        assert (g.n, g.m) == (2, 1)
        assert set(mapping) == {(0, 1), (1, 2)}

    def test_claw_gives_triangle(self):
        g, _ = line_graph(claw())
        assert g == complete_graph(3)

    def test_k4_gives_octahedron(self):
        # derived: 6 vertices, 12 edges, 4-regular, complement a matching
        g, _ = line_graph(complete_graph(4))
        assert (g.n, g.m) == (6, 12)
        assert degree_sequence(g) == (4,) * 6

    def test_edgeless_rejected(self):
        with pytest.raises(GraphInputError):
            line_graph(Graph(3))


class TestRecognition:
    def test_claw_is_not_line_graph(self):
        assert recognize_line_graph(claw()) is None

    def test_wheel_is_not_line_graph(self):
        assert recognize_line_graph(wheel_5()) is None

    def test_triangle_root_is_documented_star(self):
        rm = recognize_line_graph(complete_graph(3))
        assert rm is not None
        assert is_isomorphic_small(rm.root, claw())

    def test_octahedron_root_is_k4(self):
        g, _ = line_graph(complete_graph(4))
        rm = recognize_line_graph(g)
        assert rm is not None
        assert is_isomorphic_small(rm.root, complete_graph(4))
        assert rm.verify_against(g)

    def test_single_vertex(self):
        rm = recognize_line_graph(Graph(1))
        assert rm is not None and rm.root.m == 1

    def test_cycles_are_self_roots(self):
        for n in (3, 4, 5, 8):
            g = cycle_graph(n)
            rm = recognize_line_graph(g)
            assert rm is not None and rm.verify_against(g)

    def test_disconnected_rejected(self):
        # each component is a line graph, but a root is connected
        assert recognize_line_graph(Graph(4, [(0, 1), (2, 3)])) is None
        assert recognize_line_graph(Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])) is None

    def test_round_trip_on_random_roots(self):
        rnd = random.Random(99)
        checked = 0
        while checked < 250:
            n = rnd.randint(2, 10)
            pairs = list(combinations(range(n), 2))
            h = Graph(n, [e for e in pairs if rnd.random() < rnd.uniform(0.2, 0.7)])
            comp = next((c for c in h.connected_components() if len(c) >= 2), None)
            if comp is None:
                continue
            root, _ = h.induced(comp)
            g, _ = line_graph(root)
            rm = recognize_line_graph(g)
            assert rm is not None, root.edges
            assert rm.verify_against(g)
            checked += 1

    def test_claw_containing_graphs_rejected(self):
        rnd = random.Random(3)
        rejected = 0
        for _ in range(300):
            n = rnd.randint(4, 9)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pairs if rnd.random() < 0.35])
            if not g.is_connected() or find_claw(g) is None:
                continue
            assert recognize_line_graph(g) is None
            rejected += 1
        assert rejected > 20

    def test_determinism(self):
        g, _ = line_graph(complete_graph(4))
        first = recognize_line_graph(g)
        second = recognize_line_graph(g)
        assert first.root == second.root
        assert first.edge_to_vertex == second.edge_to_vertex


class TestNetworkxCrossCheck:
    """Roots checked by networkx's own line-graph and inverse-line-graph
    code, at sizes the brute-force oracles cannot reach."""

    @staticmethod
    def to_nx(g):
        nx = pytest.importorskip("networkx")
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    @staticmethod
    def connected_root(rnd, n, subcubic):
        if subcubic:
            h = random_subcubic_graph(rnd, n)
        else:
            p = rnd.uniform(4, 8) / n
            h = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
        comp = max(h.connected_components(), key=len)
        return h.induced(comp)[0]

    @pytest.mark.parametrize("subcubic", [True, False])
    def test_root_line_graph_matches_networkx(self, subcubic):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(71 if subcubic else 72)
        for _ in range(8):
            root = self.connected_root(rnd, rnd.randint(100, 400), subcubic)
            lg, _ = line_graph(root)
            perm = list(range(lg.n))
            rnd.shuffle(perm)
            g = Graph(lg.n, [(perm[a], perm[b]) for a, b in lg.edges])
            rm = recognize_line_graph(g)
            assert rm is not None
            e2v = rm.edge_to_vertex
            derived = {
                tuple(sorted((e2v[tuple(sorted(e))], e2v[tuple(sorted(f))])))
                for e, f in nx.line_graph(self.to_nx(rm.root)).edges
            }
            assert derived == set(g.edges)
            assert sorted(e2v.values()) == list(range(g.n))

    def test_non_line_graphs_agree_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(73)
        graphs = [squared_cycle(n) for n in (7, 8, 11, 30, 101)]
        for _ in range(10):
            sizes = [rnd.choice((1, 1, 2)) for _ in range(rnd.randint(6, 60))]
            sizes[0] = 2
            graphs.append(cycle_blowup(sizes))
        for g in graphs:
            with pytest.raises(nx.NetworkXError):
                nx.inverse_line_graph(self.to_nx(g))
            assert recognize_line_graph(g) is None
