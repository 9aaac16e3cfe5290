import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from tperfect.core import Graph, complete_graph, squared_cycle
from tperfect.errors import GraphInputError
from tperfect.io import (
    _decode_n,
    edge_list_to_graph,
    graph6_to_graph,
    graph_to_edge_list,
    graph_to_graph6,
)


def _reference_graph6_to_graph(payload: str) -> Graph:
    """The bit-by-bit decoder the word-level one replaced, kept as its reference."""
    payload = payload.strip()
    if payload.startswith(">>graph6<<"):
        payload = payload[len(">>graph6<<") :]
    n, consumed = _decode_n(payload)
    body = payload[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphInputError(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise GraphInputError(f"bad graph6 byte {ch!r}")
        bits.extend((val >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    if any(bits[i:]):
        raise GraphInputError("nonzero padding bits in graph6 payload")
    return Graph(n, edges)


def _decode_outcome(decode, payload):
    try:
        g = decode(payload)
    except GraphInputError as exc:
        return ("error", str(exc))
    adjacency = [(g.neighbors(v), g.sorted_neighbors(v)) for v in range(g.n)]
    return ("graph", g.n, g.edges, adjacency)


class TestEdgeList:
    def test_triangle(self):
        g = edge_list_to_graph("3 3\n0 1\n1 2\n2 0\n")
        assert g == complete_graph(3)

    def test_loop_rejected(self):
        with pytest.raises(GraphInputError):
            edge_list_to_graph("2 1\n0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphInputError):
            edge_list_to_graph("2 2\n0 1\n1 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError):
            edge_list_to_graph("2 1\n0 5\n")

    def test_malformed_header(self):
        with pytest.raises(GraphInputError):
            edge_list_to_graph("3\n0 1\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphInputError):
            edge_list_to_graph("3 2\n0 1\n")


class TestGraph6:
    def test_five_isolated_vertices(self):
        g = graph6_to_graph("D??")
        assert g.n == 5 and g.m == 0

    def test_reference_encodings(self):
        # frozen from an independent encoder (networkx.to_graph6_bytes)
        from tperfect.core import cycle_graph, wheel_5

        assert graph_to_graph6(complete_graph(4)) == "C~"
        assert graph_to_graph6(cycle_graph(5)) == "Dhc"
        assert graph_to_graph6(squared_cycle(7)) == "FzM]W"
        assert graph_to_graph6(wheel_5()) == "Ehfw"

    def test_known_encoding_round_trips(self):
        for g in (complete_graph(4), squared_cycle(7), Graph(1), Graph(5)):
            assert graph6_to_graph(graph_to_graph6(g)) == g

    def test_header_prefix_allowed(self):
        s = ">>graph6<<" + graph_to_graph6(complete_graph(4))
        assert graph6_to_graph(s) == complete_graph(4)

    def test_large_graph_header(self):
        g = Graph(100, [(i, i + 1) for i in range(99)])
        s = graph_to_graph6(g)
        assert s.startswith("~")
        assert graph6_to_graph(s) == g

    def test_bad_byte_rejected(self):
        with pytest.raises(GraphInputError):
            graph6_to_graph("C" + chr(10))

    def test_truncated_rejected(self):
        s = graph_to_graph6(squared_cycle(7))
        with pytest.raises(GraphInputError):
            graph6_to_graph(s[:-1])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**35 - 1))
    def test_round_trip_bit_exact(self, n, mask):
        pairs = list(combinations(range(n), 2))
        g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        s = graph_to_graph6(g)
        assert graph6_to_graph(s) == g
        # encode again: byte-identical
        assert graph_to_graph6(graph6_to_graph(s)) == s

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**30 - 1))
    def test_edge_list_round_trip(self, n, mask):
        pairs = list(combinations(range(n), 2))
        g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        assert edge_list_to_graph(graph_to_edge_list(g)) == g

    def test_empty_payload(self):
        with pytest.raises(GraphInputError, match="empty graph6 payload"):
            graph6_to_graph("  ")
        with pytest.raises(GraphInputError, match="empty edge-list payload"):
            edge_list_to_graph(" \n\n")

    def test_word_level_decoder_matches_bit_by_bit_reference(self):
        rnd = random.Random(606)
        valid_chars = [chr(v + 63) for v in range(64)]
        bad_chars = [chr(c) for c in range(33, 63)] + ["\x7f", "\xff", "\u00e9"]
        seen = Counter()
        for n in (0, 1, 2, 62, 63, 64, 300):
            total = n * (n - 1) // 2
            pad = -total % 6
            for _ in range(12):
                p = rnd.choice((0.0, 0.02, 0.3, 0.7, 1.0))
                g = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
                s = graph_to_graph6(g)
                header = len(s) - (total + 5) // 6
                payloads = [s, ">>graph6<<" + s, " " + s + "\n"]
                pos = rnd.randrange(len(s))
                payloads.append(s[:pos] + rnd.choice(bad_chars) + s[pos + 1 :])
                if len(s) > header:
                    pos = rnd.randrange(header, len(s))
                    payloads.append(s[:pos] + rnd.choice(bad_chars) + s[pos + 1 :])
                    payloads.append(s[: rnd.randrange(header, len(s))])
                payloads.append(s + "".join(rnd.choices(valid_chars, k=rnd.randint(1, 3))))
                if pad:
                    last = ord(s[-1]) - 63 | rnd.randint(1, (1 << pad) - 1)
                    payloads.append(s[:-1] + chr(last + 63))
                for payload in payloads:
                    want = _decode_outcome(_reference_graph6_to_graph, payload)
                    assert _decode_outcome(graph6_to_graph, payload) == want, (n, payload)
                    seen[want[0] if want[0] == "graph" else want[1].split()[2]] += 1
                assert graph6_to_graph(s).edges == g.edges
        # valid graphs, and the "body length", "bad byte" and "padding bits" errors
        assert seen["graph"] >= 200
        assert min(seen[k] for k in ("length", "byte", "bits")) >= 20, seen

    def test_nonzero_padding_rejected(self):
        # K2 is "A_": its one edge bit, then five padding bits
        assert graph6_to_graph("A_") == complete_graph(2)
        with pytest.raises(GraphInputError, match="nonzero padding bits"):
            graph6_to_graph("A`")

    def test_round_trip_over_generated_corpora(self):
        from tperfect.corpus import generate_corpus

        corpus = generate_corpus("named", 1, seed=0)
        corpus += generate_corpus("random-subcubic", 40, seed=6, n_min=4, n_max=14)
        corpus += generate_corpus("random-clawfree-via-linegraph", 40, seed=6)
        for g in corpus:
            assert graph6_to_graph(graph_to_graph6(g)) == g
            assert edge_list_to_graph(graph_to_edge_list(g)) == g
