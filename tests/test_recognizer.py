import random

import pytest
from conftest import cycle_blowup, random_graph

from tperfect import recognizer
from tperfect.core import (
    Graph,
    claw,
    complete_graph,
    cycle_graph,
    make_named,
    squared_cycle,
    wheel_5,
)
from tperfect.core.isomorphism import canonical_form
from tperfect.corpus import generate_corpus
from tperfect.core.graph import identify_vertices
from tperfect.errors import InternalInvariantError, NotClawFreeError
from tperfect.linegraph import line_graph, recognize_line_graph
from tperfect.oracle import is_t_perfect_bruteforce
from tperfect.parity import MAX_EXHAUSTIVE_N
from tperfect.recognizer import (
    Decision,
    _decide,
    _reduced_sides,
    _Run,
    find_claw,
    is_t_perfect,
)


class TestFindClaw:
    def test_star(self):
        w = find_claw(claw())
        assert w.centre == 0 and w.leaves == (1, 2, 3)

    def test_squared_cycle_clean(self):
        assert find_claw(squared_cycle(7)) is None

    def test_line_graphs_clean(self):
        rnd = random.Random(44)
        from itertools import combinations

        for _ in range(60):
            n = rnd.randint(2, 9)
            pairs = list(combinations(range(n), 2))
            h = Graph(n, [e for e in pairs if rnd.random() < 0.5])
            if h.m == 0:
                continue
            g, _ = line_graph(h)
            assert find_claw(g) is None

    def test_wheel_five_clean(self):
        assert find_claw(wheel_5()) is None


class TestGoldenVerdicts:
    @pytest.mark.parametrize(
        "name,expect",
        [
            ("K4", False),
            ("W5", False),
            ("C2(7)", False),
            ("C2(10)", False),
            ("C2(6)-minus-edge-v1v6", True),
            ("C2(7)-minus-vertex", True),
            ("C2(10)-minus-vertex", True),
        ],
    )
    def test_named(self, name, expect):
        assert is_t_perfect(make_named(name)).t_perfect is expect

    def test_even_cycle(self):
        assert is_t_perfect(cycle_graph(4)).t_perfect

    def test_octahedron_via_line_graph(self):
        g, _ = line_graph(complete_graph(4))
        d = is_t_perfect(g)
        assert d.t_perfect
        assert d.certificate[-1].rule.startswith("line-graph")

    def test_claw_raises_with_witness(self):
        with pytest.raises(NotClawFreeError) as exc:
            is_t_perfect(claw())
        assert exc.value.centre == 0

    def test_disconnected_conjunction(self):
        two = Graph(9, list(cycle_graph(5).edges) + [(u + 5, v + 5) for u, v in complete_graph(4).edges])
        assert not is_t_perfect(two).t_perfect
        both_fine = Graph(8, list(cycle_graph(4).edges) + [(u + 4, v + 4) for u, v in cycle_graph(4).edges])
        assert is_t_perfect(both_fine).t_perfect


class TestCertificates:
    def test_terminal_rule_last(self):
        d = is_t_perfect(make_named("W5"))
        assert d.certificate[-1].rule == "degree-screen"

    def test_certificate_names_original_vertices(self):
        g = make_named("C2(7)")
        d = is_t_perfect(g)
        scope = d.certificate[-1].vertices
        assert sorted(x for grp in scope for x in grp) == list(range(7))

    def test_determinism(self):
        g = generate_corpus("random-clawfree-via-linegraph", 1, seed=10, n_min=8, n_max=12)[0]
        a = is_t_perfect(g)
        b = is_t_perfect(g)
        assert a.t_perfect == b.t_perfect
        assert [e.to_json() for e in a.certificate] == [e.to_json() for e in b.certificate]

    def test_stats_counters(self):
        d = is_t_perfect(make_named("C2(7)-minus-vertex"))
        assert d.stats["decide_calls"] >= 1
        assert d.stats["rule_applications"] >= d.stats["decide_calls"]


def reduce_separation(g, sep, parities):
    """`_reduced_sides` on the two induced sides of `sep` = (u, v, first),
    as `_decide` calls it."""
    u, v, first = sep
    sides = [g.induced(first | {u, v}), g.induced(set(range(g.n)) - first)]
    return _reduced_sides(sides, u, v, parities)


class TestReducedSides:
    def test_shared_edge_lands_in_unchanged_case(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        sep = (0, 1, {2})
        # the separator edge is present: every induced path is the edge,
        # odd on both sides
        case, [(g1t, _), (g2t, _)] = reduce_separation(g, sep, (True, False, True, False))
        assert case == "separation-even-neither-side"
        assert g1t.n == 3 and g2t.n == 3

    def test_even_both_sides_unchanged(self):
        g = cycle_graph(6)
        sep = (0, 3, {1, 2})
        case, [(g1t, _), (g2t, _)] = reduce_separation(g, sep, (False, True, False, True))
        assert case == "separation-odd-neither-side"
        assert (g1t.n, g2t.n) == (4, 4)

    def test_mixed_case_builds_no_sides(self):
        g = cycle_graph(6)
        sep = (0, 3, {1, 2})
        # the caller rejects the graph instead of reducing
        assert reduce_separation(g, sep, (True, True, True, True)) == (
            "mixed-parities-both-sides",
            None,
        )

    def test_odd_one_side_children_are_t_perfect(self):
        # splitting a five-cycle at a two-cut: one side odd-only, the
        # other even-only; both reduced sides check out via the oracle
        g = cycle_graph(5)
        sep = (0, 2, {1})
        # side1 = path 0-1-2 (even only), side2 = path 2-3-4-0 (odd only)
        case, children = reduce_separation(g, sep, (False, True, True, False))
        assert case in ("separation-odd-one-side", "separation-even-one-side")
        for child, _ in children:
            assert is_t_perfect_bruteforce(child)


class TestOracleAgreement:
    def test_exhaustive_small_clawfree(self):
        from tperfect.corpus import enumerate_connected_graphs, is_clawfree

        graphs = enumerate_connected_graphs(6, is_clawfree)
        for g in graphs:
            d = is_t_perfect(g)
            assert d.t_perfect == is_t_perfect_bruteforce(g), g.edges
            assert within_call_bound(g, d), g.edges

    def test_random_corpus(self):
        corpus = generate_corpus("random-clawfree-via-linegraph", 150, seed=77, n_min=4, n_max=12)
        for g in corpus:
            d = is_t_perfect(g)
            assert d.t_perfect == is_t_perfect_bruteforce(g), g.edges
            assert within_call_bound(g, d), g.edges

    @pytest.mark.slow
    def test_master_property_exhaustive_to_nine(self, clawfree_to_nine):
        # verdicts match the forbidden-t-minor closure on every connected
        # claw-free graph with at most nine vertices
        graphs = clawfree_to_nine
        assert len(graphs) == 5639
        for g in graphs:
            d = is_t_perfect(g)
            assert d.t_perfect == is_t_perfect_bruteforce(g), g.edges
            assert within_call_bound(g, d), g.edges


def within_call_bound(g, d):
    """`_decide`'s proven bound: at most 2n - 1 calls on n >= 1 vertices."""
    return d.stats["decide_calls"] <= 2 * g.n - 1


def claw_first_decision(g):
    """Reference for `is_t_perfect`: the claw scan first, then the whole
    input through `_decide` with a root built for it."""
    witness = find_claw(g)
    if witness is not None:
        raise NotClawFreeError(witness.centre, witness.leaves)
    run = _Run(MAX_EXHAUSTIVE_N)
    origins = tuple(frozenset([v]) for v in range(g.n))
    verdict = g.n == 0 or _decide(run, g, origins, recognize_line_graph(g))
    stats = {
        "decide_calls": run.decide_calls,
        "parity_queries": run.parity_queries,
        "theta_rules": run.theta_rules,
        "rule_applications": run.decide_calls + run.theta_rules,
    }
    return Decision(verdict, tuple(run.trace), stats)


class TestRootBeforeClawScan:
    def test_claw_witness_is_find_claws(self):
        rnd = random.Random(81)
        seen = {True: 0, False: 0}
        for _ in range(600):
            n = rnd.randint(4, 14)
            g = random_graph(rnd, n, rnd.uniform(0.1, 0.5))
            witness = find_claw(g)
            if witness is None:
                continue
            with pytest.raises(NotClawFreeError) as exc:
                is_t_perfect(g)
            assert (exc.value.centre, exc.value.leaves) == (witness.centre, witness.leaves)
            seen[g.is_connected()] += 1
        assert min(seen.values()) > 50, seen

    @pytest.mark.slow
    def test_decisions_match_claw_first_reference(self, clawfree_to_nine):
        for g in clawfree_to_nine:
            assert is_t_perfect(g).to_json() == claw_first_decision(g).to_json(), g.edges

    @pytest.mark.slow
    def test_disjoint_unions_match_claw_first_reference(self, clawfree_to_nine):
        rnd = random.Random(82)
        for _ in range(400):
            parts = rnd.sample(clawfree_to_nine, rnd.randint(2, 3))
            edges, n = [], 0
            for h in parts:
                edges += [(u + n, v + n) for u, v in h.edges]
                n += h.n
            perm = list(range(n))
            rnd.shuffle(perm)
            g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
            d = is_t_perfect(g)
            assert d.to_json() == claw_first_decision(g).to_json(), g.edges
            assert within_call_bound(g, d), g.edges
            # the parts are decided as blocks of the whole and conjoined
            assert d.t_perfect == all(is_t_perfect(h).t_perfect for h in parts), g.edges
            first = d.certificate[0]
            assert first.rule == "block-split" and len(first.vertices) == n

    def test_one_root_search_and_no_claw_scan_on_line_graphs(self, monkeypatch):
        calls = {"root": 0, "claw": 0}

        def counted(name, fn):
            def wrapper(g):
                calls[name] += 1
                return fn(g)

            return wrapper

        monkeypatch.setattr(recognizer, "recognize_line_graph", counted("root", recognize_line_graph))
        monkeypatch.setattr(recognizer, "find_claw", counted("claw", find_claw))
        is_t_perfect(line_graph(complete_graph(4))[0])
        assert calls == {"root": 1, "claw": 0}
        is_t_perfect(squared_cycle(7))  # 3-connected, not a line graph
        assert calls == {"root": 2, "claw": 1}

    @pytest.mark.slow
    def test_root_search_makes_no_component_search(self, monkeypatch, clawfree_to_nine):
        searches = []
        components = Graph.connected_components

        def counted(g):
            searches.append(g.n)
            return components(g)

        monkeypatch.setattr(Graph, "connected_components", counted)
        two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert recognize_line_graph(two_triangles) is None
        for g in clawfree_to_nine:
            recognize_line_graph(g)
        assert searches == []
        # a disconnected input is split once, as blocks
        d = is_t_perfect(two_triangles)
        assert d.t_perfect and [e.rule for e in d.certificate].count("block-split") == 1
        assert d.certificate[0].rule == "block-split"

    def test_separation_layer_makes_no_component_search(self, monkeypatch):
        # find_two_separation meets only 2-connected blocks on this path
        searches = []
        components = Graph.connected_components
        monkeypatch.setattr(
            Graph, "connected_components", lambda g: searches.append(g.n) or components(g)
        )
        rnd = random.Random(14)
        separations = []
        split = recognizer.find_two_separation
        monkeypatch.setattr(
            recognizer, "find_two_separation", lambda g: separations.append(g.n) or split(g)
        )
        for _ in range(60):
            g = cycle_blowup([rnd.choice((1, 1, 2)) for _ in range(rnd.randint(5, 12))])
            assert within_call_bound(g, is_t_perfect(g)), g.edges
        for n in (11, 14, 20):
            is_t_perfect(squared_cycle(n))
        assert len(separations) > 60 and searches == []

    def test_claw_scans_land_only_on_rootless_graphs(self, monkeypatch):
        # a root from the line-graph layer means L(root) = child, which has no claw
        rootless, scanned = [], []

        def root_of(g):
            root = recognize_line_graph(g)
            if root is None:
                rootless.append(g)
            return root

        monkeypatch.setattr(recognizer, "recognize_line_graph", root_of)
        monkeypatch.setattr(recognizer, "find_claw", lambda g: scanned.append(g) or find_claw(g))
        rnd = random.Random(19)
        for _ in range(60):
            is_t_perfect(cycle_blowup([rnd.choice((1, 1, 2)) for _ in range(rnd.randint(5, 12))]))
        rootless_ids = {id(g) for g in rootless}
        assert len(scanned) > 60
        assert all(id(g) in rootless_ids for g in scanned)

    def test_a_child_with_a_claw_is_an_internal_error(self, monkeypatch):
        def clawed(g, u, v):
            merged, old_to_new = identify_vertices(g, u, v)
            return Graph(merged.n, [(0, 1), (0, 2), (0, 3)]), old_to_new

        monkeypatch.setattr(recognizer, "identify_vertices", clawed)
        with pytest.raises(InternalInvariantError, match="claw-free"):
            is_t_perfect(cycle_blowup([2, 1, 1, 2, 1]))

    def test_empty_and_edgeless_inputs_are_t_perfect(self):
        empty = is_t_perfect(Graph(0))
        assert empty.t_perfect and empty.certificate == ()
        edgeless = is_t_perfect(Graph(3))
        assert edgeless.t_perfect and edgeless.certificate[0].rule == "block-split"


class TestExceptionalForms:
    def test_fixed_forms_once_and_block_forms_on_matching_size(self, monkeypatch):
        forms = []

        def counted(g):
            forms.append((g.n, g.m))
            return canonical_form(g)

        monkeypatch.setattr(recognizer, "canonical_form", counted)
        recognizer._exceptional_forms.cache_clear()
        for _ in range(2):
            assert not is_t_perfect(squared_cycle(7)).t_perfect
        fixed = [(7, 14), (10, 20), (6, 11), (6, 10), (9, 16)]
        assert forms == fixed + [(7, 14), (7, 14)]
        forms.clear()
        d = is_t_perfect(squared_cycle(11))  # n and m match no fixed graph
        assert not d.t_perfect and d.certificate[-1].rule == "three-connected"
        assert forms == []
