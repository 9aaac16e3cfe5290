import random
from itertools import combinations

import pytest

from tperfect.core import Graph, complete_graph, cycle_graph, prism_graph, theta_graph
from tperfect.errors import GraphInputError, SizeGuardError
from tperfect.parity import (
    LinkageQuery,
    exists_induced_path_with_parity,
    find_two_disjoint_paths,
    has_two_disjoint_odd_cycles,
)
from tperfect.theta import make_view


def enumerate_induced_paths(g, u, v):
    """Independent oracle: depth-first enumeration of all induced u-v
    paths, no pruning."""
    found = []

    def rec(path, on_path):
        last = path[-1]
        for w in g.sorted_neighbors(last):
            if w in on_path:
                continue
            if any(g.has_edge(w, x) for x in path[:-1]):
                continue
            if w == v:
                found.append(path + [w])
                continue
            rec(path + [w], on_path | {w})

    rec([u], {u})
    return found


class TestInducedParity:
    def test_adjacent_in_cycle_five(self):
        assert exists_induced_path_with_parity(cycle_graph(5), 0, 1) == (True, False)

    def test_antipodal_in_cycle_four(self):
        assert exists_induced_path_with_parity(cycle_graph(4), 0, 2) == (False, True)

    def test_matches_enumeration_on_random_graphs(self):
        rnd = random.Random(17)
        for _ in range(160):
            n = rnd.randint(2, 9)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pairs if rnd.random() < 0.4])
            u, v = rnd.sample(range(n), 2)
            paths = enumerate_induced_paths(g, u, v)
            lengths = {(len(p) - 1) % 2 for p in paths}
            assert exists_induced_path_with_parity(g, u, v) == (1 in lengths, 0 in lengths)

    def test_stops_once_both_parities_are_seen(self, monkeypatch):
        # 0-1-2-5 is odd and 0-1-3-4-5 even, both through 1; the search
        # finds both before it would leave 0 by the third path 0-6-7-5
        g = Graph(8, [(0, 1), (1, 2), (2, 5), (1, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 5)])
        paths = enumerate_induced_paths(g, 0, 5)
        assert sorted(len(p) - 1 for p in paths) == [3, 3, 4]
        tried = []
        sorted_neighbors = Graph.sorted_neighbors

        def counted(self, x):
            tried.append(x)
            return sorted_neighbors(self, x)

        monkeypatch.setattr(Graph, "sorted_neighbors", counted)
        assert exists_induced_path_with_parity(g, 0, 5) == (True, True)
        assert 6 not in tried and tried.count(0) == 1

    def test_size_guard(self):
        g = cycle_graph(25)
        with pytest.raises(SizeGuardError):
            exists_induced_path_with_parity(g, 0, 5)
        assert exists_induced_path_with_parity(g, 0, 5, max_exhaustive_n=30) == (True, True)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(GraphInputError):
            exists_induced_path_with_parity(cycle_graph(5), 1, 1)


class TestTwoDisjointPaths:
    def test_complete_graph(self):
        assert find_two_disjoint_paths(complete_graph(4), LinkageQuery(((0, 1), (2, 3)))) is not None

    def test_star_centre_shared(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert find_two_disjoint_paths(g, LinkageQuery(((1, 2), (3, 4)))) is None

    def test_interleaved_on_cycle(self):
        # derived: exhaust path pairs on C6 with interleaved terminals
        g = cycle_graph(6)
        assert find_two_disjoint_paths(g, LinkageQuery(((0, 3), (1, 4)))) is None
        assert find_two_disjoint_paths(g, LinkageQuery(((0, 1), (3, 4)))) is not None

    def test_forbidden_edges_respected(self):
        g = cycle_graph(6).without_edges({(0, 1), (3, 4)})
        found = find_two_disjoint_paths(g, LinkageQuery(((0, 1), (3, 4))))
        assert found is None  # each pair's only remaining route hits the other pair

    def test_trivial_pair(self):
        g = cycle_graph(5)
        found = find_two_disjoint_paths(g, LinkageQuery(((0, 0), (2, 3))))
        assert found is not None and found[0] == [0]
        assert 0 not in found[1]

    def test_shared_terminals_rejected(self):
        with pytest.raises(GraphInputError):
            LinkageQuery(((0, 1), (1, 2)))

    def test_paths_are_disjoint_and_valid(self):
        rnd = random.Random(23)
        for _ in range(120):
            n = rnd.randint(4, 10)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pairs if rnd.random() < 0.45])
            terms = rnd.sample(range(n), 4)
            q = LinkageQuery(((terms[0], terms[1]), (terms[2], terms[3])))
            found = find_two_disjoint_paths(g, q)
            if found is None:
                continue
            p1, p2 = found
            assert p1[0] == terms[0] and p1[-1] == terms[1]
            assert p2[0] == terms[2] and p2[-1] == terms[3]
            assert not (set(p1) & set(p2))
            for p in (p1, p2):
                for a, b in zip(p, p[1:]):
                    assert g.has_edge(a, b)


class TestDisjointOddCycles:
    def test_two_triangles_joined(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        labels = [0, 0, 1, 0, 0, 1]
        # odd edges: exactly (0,1) and (3,4)
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1), (3, 4))
        assert has_two_disjoint_odd_cycles(g, view)

    def test_theta_graph_has_none(self):
        g = theta_graph(2, 2, 3)
        view = None
        # build a bipartition with exactly two odd edges on distinct paths
        for mask in range(1 << g.n):
            labels = [(mask >> v) & 1 for v in range(g.n)]
            cand = make_view(g, labels)
            if len(cand.odd_edges) == 2 and not (set(cand.odd_edges[0]) & set(cand.odd_edges[1])):
                view = cand
                break
        assert view is not None
        assert not has_two_disjoint_odd_cycles(g, view)

    def test_prism_with_odd_triangle_edges(self):
        g = prism_graph()
        labels = [0, 0, 1, 1, 1, 0]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1), (3, 4))
        assert has_two_disjoint_odd_cycles(g, view)

    def test_adjacent_odd_edges_give_false(self):
        g = cycle_graph(6)
        labels = [0, 0, 0, 1, 0, 1]
        view = make_view(g, labels)
        assert view.odd_edges == ((0, 1), (1, 2))
        assert not has_two_disjoint_odd_cycles(g, view)

    def test_agrees_with_exhaustive_cycle_pairs(self):
        # reduction soundness against independent disjoint-cycle
        # enumeration on subcubic graphs
        from tperfect.corpus import random_subcubic_graph

        rnd = random.Random(31)
        checked = 0
        while checked < 80:
            g = random_subcubic_graph(rnd, rnd.randint(5, 11))
            views = []
            for mask in range(1 << g.n):
                labels = [(mask >> v) & 1 for v in range(g.n)]
                cand = make_view(g, labels)
                if len(cand.odd_edges) == 2:
                    views.append(cand)
                    break
            if not views:
                continue
            view = views[0]
            assert has_two_disjoint_odd_cycles(g, view) == _brute_disjoint_odd_cycles(g, view)
            checked += 1


def _brute_disjoint_odd_cycles(g, view):
    cycles = _all_cycles(g)
    odd = [c for c in cycles if sum(1 for e in c if view.is_odd(e)) % 2 == 1]
    for i, c1 in enumerate(odd):
        v1 = {x for e in c1 for x in e}
        for c2 in odd[i + 1 :]:
            v2 = {x for e in c2 for x in e}
            if not (v1 & v2):
                return True
    return False


def _all_cycles(g):
    cycles = set()

    def rec(start, path, on_path):
        last = path[-1]
        for w in g.sorted_neighbors(last):
            if w == start and len(path) >= 3:
                es = frozenset(
                    tuple(sorted((a, b))) for a, b in zip(path, path[1:] + [start])
                )
                cycles.add(es)
            elif w not in on_path and w > start:
                rec(start, path + [w], on_path | {w})

    for s in range(g.n):
        rec(s, [s], {s})
    return list(cycles)
