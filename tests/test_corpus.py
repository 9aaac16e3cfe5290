import pytest

from tperfect.corpus import (
    enumerate_connected_graphs,
    generate_corpus,
    is_clawfree,
)
from tperfect.errors import GraphInputError
from tperfect.recognizer import find_claw


class TestGenerators:
    def test_seeded_determinism(self):
        a = generate_corpus("random-subcubic", 100, seed=7)
        b = generate_corpus("random-subcubic", 100, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_corpus("random-subcubic", 50, seed=1)
        b = generate_corpus("random-subcubic", 50, seed=2)
        assert a != b

    def test_subcubic_bound_holds(self):
        for g in generate_corpus("random-subcubic", 80, seed=3, n_min=4, n_max=14):
            assert g.is_subcubic()
            assert 4 <= g.n <= 14

    def test_clawfree_post_check(self):
        for g in generate_corpus("random-clawfree-via-linegraph", 50, seed=1):
            assert find_claw(g) is None
            assert 4 <= g.n <= 12

    def test_named_catalogue(self):
        graphs = generate_corpus("named", 1, seed=0)
        assert len(graphs) == 8
        assert graphs[0].n == 4  # K4 leads the catalogue

    def test_unknown_kind(self):
        with pytest.raises(GraphInputError):
            generate_corpus("random-dense", 5, seed=0)

    def test_bad_count(self):
        with pytest.raises(GraphInputError):
            generate_corpus("random-subcubic", 0, seed=0)

    @pytest.mark.parametrize(
        "kind, n_min, n_max",
        [("random-subcubic", -1, 3), ("random-clawfree-via-linegraph", 0, 3)],
    )
    def test_size_range_below_the_smallest_graph(self, kind, n_min, n_max):
        # empty ranges are checked through the CLI in test_cli.py
        with pytest.raises(GraphInputError, match="size range"):
            generate_corpus(kind, 3, seed=0, n_min=n_min, n_max=n_max)

    def test_smallest_size_ranges(self):
        assert {g.n for g in generate_corpus("random-subcubic", 5, 0, n_min=0, n_max=0)} == {0}
        for g in generate_corpus("random-clawfree-via-linegraph", 5, 0, n_min=1, n_max=1):
            assert g.n == 1


class TestEnumeration:
    def test_connected_graph_counts(self):
        # 1, 1, 2, 6, 21 connected graphs on 1..5 vertices
        graphs = enumerate_connected_graphs(5)
        by_n = {}
        for g in graphs:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}

    def test_hereditary_pruning_matches_post_filter(self):
        pruned = enumerate_connected_graphs(5, is_clawfree)
        full = [g for g in enumerate_connected_graphs(5) if is_clawfree(g)]
        assert len(pruned) == len(full)

    def test_subcubic_enumeration_is_subcubic(self):
        for g in enumerate_connected_graphs(6, lambda h: h.is_subcubic()):
            assert g.is_subcubic()
            assert g.is_connected()
