import random
from itertools import combinations, permutations

import pytest

from tperfect.core import (
    Graph,
    claw,
    complete_graph,
    cycle_graph,
    is_isomorphic_small,
    path_graph,
    prism_graph,
    squared_cycle,
    squared_cycle_6_minus_edge,
    squared_cycle_minus_vertex,
    theta_graph,
    wheel_5,
)
from tperfect.corpus import generate_corpus, random_subcubic_graph
from tperfect.errors import NotClawFreeError, SizeGuardError
from tperfect.linegraph import line_graph
from tperfect.oracle import (
    canonical_form,
    has_k4_t_minor,
    has_skewed_prism_bruteforce,
    has_skewed_theta_bruteforce,
    is_t_perfect_bruteforce,
    t_contract,
)


class TestTContract:
    def test_path_centre_collapses_all(self):
        g = t_contract(path_graph(3), 1)
        assert g is not None and g.n == 1

    def test_triangle_blocked(self):
        assert t_contract(complete_graph(3), 0) is None

    def test_cycle_shrinks_by_two(self):
        g = t_contract(cycle_graph(5), 0)
        assert is_isomorphic_small(g, complete_graph(3))

    def test_result_simple(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        h = t_contract(g, 0)
        assert h is not None
        assert len(set(h.edges)) == h.m


class TestCanonicalForm:
    def test_relabel_invariance(self):
        rnd = random.Random(8)
        for _ in range(100):
            n = rnd.randint(1, 9)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pairs if rnd.random() < 0.4])
            perm = list(range(n))
            rnd.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(g) == canonical_form(h)

    def test_complete_canonical_on_four_vertices(self):
        # the form separates all isomorphism classes: verified against
        # relabelling by all 24 permutations of every labeled 4-vertex graph
        pairs = list(combinations(range(4), 2))
        seen = {}
        for mask in range(1 << 6):
            g = Graph(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
            c = canonical_form(g)
            if c in seen:
                h = seen[c]
                assert any(
                    {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(h.edges)
                    for p in permutations(range(4))
                )
            else:
                seen[c] = g
        assert len(seen) == 11  # graphs on 4 vertices up to isomorphism


class TestTPerfectOracle:
    def test_forbidden_graphs(self):
        for g in (complete_graph(4), wheel_5(), squared_cycle(7), squared_cycle(10)):
            assert not is_t_perfect_bruteforce(g)

    def test_exceptional_t_perfect(self):
        for g in (
            squared_cycle_6_minus_edge(),
            squared_cycle_minus_vertex(7),
            squared_cycle_minus_vertex(10),
        ):
            assert is_t_perfect_bruteforce(g)

    def test_cycle_five(self):
        # derived: the closure of C5 contains no forbidden graph
        assert is_t_perfect_bruteforce(cycle_graph(5))

    def test_octahedron(self):
        g, _ = line_graph(complete_graph(4))
        assert is_t_perfect_bruteforce(g)

    def test_claw_rejected(self):
        with pytest.raises(NotClawFreeError):
            is_t_perfect_bruteforce(claw())

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            is_t_perfect_bruteforce(cycle_graph(13))

    def test_closure_finds_buried_k4(self):
        # a subdivided K4's line graph is t-imperfect only through
        # contractions, not induced subgraphs
        g, _ = line_graph(theta_graph(1, 2, 3))
        assert not is_t_perfect_bruteforce(g)


class TestThetaOracle:
    def test_complete_graph_only_balanced_triples(self):
        assert not has_skewed_theta_bruteforce(complete_graph(4))

    def test_theta_family(self):
        assert has_skewed_theta_bruteforce(theta_graph(2, 3, 3))
        assert has_skewed_theta_bruteforce(theta_graph(1, 2, 3))
        assert not has_skewed_theta_bruteforce(theta_graph(2, 2, 2))

    def test_even_cycle(self):
        assert not has_skewed_theta_bruteforce(cycle_graph(8))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            has_skewed_theta_bruteforce(cycle_graph(15))

    def test_non_subcubic_supported(self):
        g = wheel_5()
        # wheel: rim cycles odd/even paths around the hub
        assert has_skewed_theta_bruteforce(g) == _theta_spot_check(g)


def _theta_spot_check(g):
    # tiny independent re-derivation with a different enumeration order
    from tperfect.core.graph import edge_key

    eidx = {e: i for i, e in enumerate(g.edges)}

    def paths(u, v):
        out = []

        def rec(x, mask, seen, ln):
            if x == v:
                out.append((mask, ln))
                return
            for y in g.sorted_neighbors(x):
                if y not in seen:
                    rec(y, mask | (1 << eidx[edge_key(x, y)]), seen | {y}, ln + 1)

        rec(u, 0, {u}, 0)
        return out

    for u in range(g.n):
        for v in range(u + 1, g.n):
            ps = paths(u, v)
            for i, (m1, l1) in enumerate(ps):
                for j, (m2, l2) in enumerate(ps):
                    if j <= i or m1 & m2:
                        continue
                    for m3, l3 in ps:
                        if m3 & (m1 | m2):
                            continue
                        if sorted((l1 % 2, l2 % 2, l3 % 2)) == [0, 1, 1]:
                            return True
    return False


class TestPrismOracle:
    def test_k4_is_a_degenerate_prism(self):
        # zero-length even paths are allowed, so K4 itself matches
        assert has_skewed_prism_bruteforce(complete_graph(4))

    def test_plain_prism_is_not_skewed(self):
        assert not has_skewed_prism_bruteforce(prism_graph())

    def test_one_subdivided_rung_is_still_unbalanced(self):
        # lengths (2,1,1): still two odd paths
        pg = prism_graph()
        es = [e for e in pg.edges if e != (0, 3)] + [(0, 6), (6, 3)]
        assert not has_skewed_prism_bruteforce(Graph(7, es))

    def test_two_subdivided_rungs_match(self):
        pg = prism_graph()
        es = [e for e in pg.edges if e not in {(0, 3), (1, 4)}] + [
            (0, 6), (6, 3), (1, 7), (7, 4),
        ]
        assert has_skewed_prism_bruteforce(Graph(8, es))

    def test_cycle_has_no_triangles(self):
        assert not has_skewed_prism_bruteforce(cycle_graph(6))


class TestCrossChecks:
    def test_prism_iff_k4_minor(self):
        corpus = generate_corpus("random-clawfree-via-linegraph", 120, seed=2, n_min=4, n_max=10)
        for g in corpus:
            assert has_skewed_prism_bruteforce(g) == has_k4_t_minor(g)

    def test_three_conditions_characterisation(self):
        # connected claw-free graphs are t-perfect iff max degree <= 4,
        # not one of the two squared-cycle obstructions, and no K4 t-minor
        corpus = generate_corpus("random-clawfree-via-linegraph", 120, seed=3, n_min=4, n_max=10)
        for g in corpus:
            if not g.is_connected():
                continue
            cond = (
                g.max_degree() <= 4
                and not (g.n == 7 and is_isomorphic_small(g, squared_cycle(7)))
                and not (g.n == 10 and is_isomorphic_small(g, squared_cycle(10)))
                and not has_k4_t_minor(g)
            )
            assert is_t_perfect_bruteforce(g) == cond

    def test_line_graph_bridge(self):
        rnd = random.Random(6)
        checked = 0
        while checked < 120:
            h = random_subcubic_graph(rnd, rnd.randint(3, 10))
            if not (1 <= h.m <= 12):
                continue
            g, _ = line_graph(h)
            assert is_t_perfect_bruteforce(g) == (not has_skewed_theta_bruteforce(h))
            checked += 1
