"""Acceptance suite: each test implements one release criterion at its
stated size and tolerance and prints a PASS line with the measurements.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the default `pytest` run.
"""

import io
import json
import math
import random
import time

import pytest

from tperfect.cli import run_cli
from tperfect.core import Graph, is_two_connected, make_named
from tperfect.corpus import (
    enumerate_connected_graphs,
    generate_corpus,
    is_clawfree,
    random_subcubic_graph,
)
from tperfect.io import graph_to_graph6
from tperfect.linegraph import line_graph
from tperfect.oracle import (
    has_k4_t_minor,
    has_skewed_prism_bruteforce,
    has_skewed_theta_bruteforce,
    is_t_perfect_bruteforce,
)
from tperfect.recognizer import is_t_perfect
from tperfect.theta import has_skewed_theta

pytestmark = pytest.mark.acceptance

GOLDEN = [
    ("K4", False),
    ("W5", False),
    ("C2(7)", False),
    ("C2(10)", False),
    ("C2(6)-minus-edge-v1v6", True),
    ("C2(7)-minus-vertex", True),
    ("C2(10)-minus-vertex", True),
]


def test_criterion_1_named_golden_suite():
    t0 = time.perf_counter()
    results = []
    for name, expect in GOLDEN:
        decision = is_t_perfect(make_named(name))
        results.append(decision.t_perfect is expect)
    elapsed = time.perf_counter() - t0
    assert all(results), list(zip(GOLDEN, results))
    assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 (named golden suite): PASS - 7/7 exact in {elapsed * 1000:.1f} ms")


def test_criterion_2_recognizer_oracle_equivalence():
    t0 = time.perf_counter()
    exhaustive = [
        g for g in enumerate_connected_graphs(8, is_clawfree) if g.is_connected()
    ]
    mismatches = 0
    for g in exhaustive:
        if is_t_perfect(g).t_perfect != is_t_perfect_bruteforce(g):
            mismatches += 1
    random_corpus = generate_corpus(
        "random-clawfree-via-linegraph", 10000, seed=20240831, n_min=4, n_max=12
    )
    for g in random_corpus:
        if is_t_perfect(g).t_perfect != is_t_perfect_bruteforce(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    total = len(exhaustive) + len(random_corpus)
    assert mismatches == 0, f"{mismatches} disagreements out of {total}"
    assert elapsed < 1800, f"criterion 2 took {elapsed:.0f}s (budget 30 min)"
    print(
        f"\nACCEPTANCE 2 (recognizer-oracle equivalence): PASS - "
        f"{len(exhaustive)} exhaustive + {len(random_corpus)} random graphs, "
        f"100% agreement in {elapsed:.0f} s"
    )


def test_criterion_3_theta_oracle_equivalence():
    t0 = time.perf_counter()
    exhaustive = enumerate_connected_graphs(8, lambda g: g.is_subcubic())
    mismatches = 0
    for g in exhaustive:
        if has_skewed_theta(g).contains != has_skewed_theta_bruteforce(g):
            mismatches += 1
    rnd = random.Random(271828)
    n_random = 5000
    for _ in range(n_random):
        g = random_subcubic_graph(rnd, rnd.randint(4, 14))
        if has_skewed_theta(g).contains != has_skewed_theta_bruteforce(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 3 (theta-oracle equivalence): PASS - "
        f"{len(exhaustive)} exhaustive + {n_random} random subcubic graphs, "
        f"100% agreement in {elapsed:.0f} s"
    )


def test_criterion_4_line_graph_bridge():
    t0 = time.perf_counter()
    rnd = random.Random(314159)
    checked = 0
    mismatches = 0
    while checked < 1000:
        root = random_subcubic_graph(rnd, rnd.randint(2, 10))
        if root.m == 0:
            continue
        g, _ = line_graph(root)
        if is_t_perfect(g).t_perfect != (not has_skewed_theta_bruteforce(root)):
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 4 (line-graph bridge): PASS - {checked} random roots, "
        f"100% agreement in {elapsed:.0f} s"
    )


def test_criterion_5_prism_vs_k4_minor():
    t0 = time.perf_counter()
    corpus = generate_corpus(
        "random-clawfree-via-linegraph", 1000, seed=161803, n_min=4, n_max=10
    )
    mismatches = sum(
        1 for g in corpus if has_skewed_prism_bruteforce(g) != has_k4_t_minor(g)
    )
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 5 (skewed prism vs K4 t-minor): PASS - "
        f"{len(corpus)} claw-free graphs, 100% agreement in {elapsed:.0f} s"
    )


def test_criterion_6_structural_assertions_quiet():
    # every structural invariant in the pipeline raises on violation, so a
    # clean mixed-corpus sweep certifies that none fired: flip
    # monotonicity, triad cut surplus, rebuild size bounds, split-side
    # edge bounds, separation-child shrinkage and claw-freeness
    t0 = time.perf_counter()
    rnd = random.Random(999)
    runs = 0
    for _ in range(1500):
        g = random_subcubic_graph(rnd, rnd.randint(4, 14))
        has_skewed_theta(g)
        runs += 1
    for g in generate_corpus(
        "random-clawfree-via-linegraph", 1500, seed=998, n_min=4, n_max=12
    ):
        is_t_perfect(g)
        runs += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 6 (structural assertions quiet): PASS - "
        f"{runs} pipeline runs without an invariant violation in {elapsed:.0f} s"
    )


def _fit_exponent(sizes, values):
    """Least-squares slope of log(values) against log(sizes)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(v) for v in values]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )


def test_criterion_7_polynomial_scaling_smoke():
    rnd = random.Random(555)
    sizes = (50, 100, 200, 400)
    means = []
    for n in sizes:
        counts = []
        for _ in range(5):
            root = random_subcubic_graph(rnd, n)
            g, _ = line_graph(root)
            counts.append(max(1, is_t_perfect(g).stats["rule_applications"]))
        means.append(sum(counts) / len(counts))
    slope = _fit_exponent(sizes, means)
    assert slope <= 2.5, f"fit exponent {slope:.2f} exceeds 2.5"

    big_times = []
    for _ in range(3):
        root = random_subcubic_graph(rnd, 500)
        g, _ = line_graph(root)
        t0 = time.perf_counter()
        is_t_perfect(g)
        big_times.append(time.perf_counter() - t0)
    assert all(t < 60 for t in big_times), big_times
    print(
        f"\nACCEPTANCE 7 (polynomial scaling smoke): PASS - fit exponent "
        f"{slope:.2f} <= 2.5 over n={sizes}, 500-vertex roots decided in "
        f"{max(big_times):.2f} s worst case"
    )


def _random_bridgeless_cubic_graph(rnd, n):
    """Pairing model: three points per vertex, matched at random, kept
    when the result is simple and 2-connected (for a cubic graph, the
    same as connected and bridgeless)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rnd.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            g = Graph(n, sorted(edges))
            if is_two_connected(g):
                return g


def _subdivided_cubic_root(rnd, n_cubic):
    """A bridgeless cubic graph with every edge but one subdivided once.
    Every path between cubic vertices is odd exactly when it uses the
    whole edge, and at most one path of a theta can use it, so no skewed
    theta exists."""
    cubic = _random_bridgeless_cubic_graph(rnd, n_cubic)
    kept = rnd.choice(cubic.edges)
    edges = [kept]
    for u, v in cubic.edges:
        if (u, v) != kept:
            mid = n_cubic + len(edges) // 2
            edges += [(u, mid), (mid, v)]
    return Graph(n_cubic + len(edges) // 2, edges)


def test_criterion_9_one_odd_edge_theta_scaling():
    # the family on which theta phase two used to branch exponentially
    rnd = random.Random(2013)
    sizes = (20, 50, 100, 200)
    mean_s, mean_rules = [], []
    for n in sizes:
        times, rules = [], []
        for _ in range(3):
            root = _subdivided_cubic_root(rnd, n)
            t0 = time.perf_counter()
            verdict = has_skewed_theta(root)
            times.append(time.perf_counter() - t0)
            assert not verdict.contains, (n, root.edges)
            rules.append(len(verdict.trace))
        mean_s.append(sum(times) / len(times))
        mean_rules.append(sum(rules) / len(rules))
    time_slope = _fit_exponent(sizes, mean_s)
    rule_slope = _fit_exponent(sizes, mean_rules)
    assert time_slope <= 2.5, f"wall-time exponent {time_slope:.2f} exceeds 2.5"
    assert rule_slope <= 2.5, f"rule-count exponent {rule_slope:.2f} exceeds 2.5"
    print(
        f"\nACCEPTANCE 9 (one-odd-edge theta scaling): PASS - no skewed theta "
        f"in 12 subdivided cubic roots; wall-time exponent {time_slope:.2f}, "
        f"rule-count exponent {rule_slope:.2f} <= 2.5 over {sizes} cubic "
        f"vertices; mean ms {[round(t * 1000, 1) for t in mean_s]}"
    )


def test_criterion_10_phase_one_scaling():
    # phase one used to start with every edge odd-class and flip its way
    # down one BFS layer at a time, so its trace grew linearly with n
    cycle_sizes = (201, 401, 801, 1601)
    cycle_rules = []
    for n in cycle_sizes:
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)])
        verdict = has_skewed_theta(g)
        assert verdict.contains, n
        cycle_rules.append(len(verdict.trace))
    # every edge of a bridgeless cubic graph subdivided: bipartite,
    # subcubic and 2-connected, 2.5 vertices per cubic vertex
    rnd = random.Random(1601)
    root_sizes = (100, 200, 400, 800)
    root_rules = []
    for n in root_sizes:
        cubic = _random_bridgeless_cubic_graph(rnd, 2 * n // 5)
        edges = []
        for i, (u, v) in enumerate(cubic.edges):
            edges += [(u, cubic.n + i), (cubic.n + i, v)]
        root = Graph(cubic.n + cubic.m, edges)
        assert root.n == n and root.is_bipartite()
        verdict = has_skewed_theta(root)
        assert not verdict.contains, n
        assert not any(rule == "flip" for rule, _ in verdict.trace), n
        root_rules.append(len(verdict.trace))
    cycle_slope = _fit_exponent(cycle_sizes, cycle_rules)
    root_slope = _fit_exponent(root_sizes, root_rules)
    assert cycle_slope <= 0.5, f"odd-cycle trace exponent {cycle_slope:.2f} exceeds 0.5"
    assert root_slope <= 0.5, f"bipartite-root trace exponent {root_slope:.2f} exceeds 0.5"
    print(
        f"\nACCEPTANCE 10 (phase-one scaling): PASS - trace lengths {cycle_rules} "
        f"on odd cycles with a 2-chord, n={cycle_sizes}, and {root_rules} with no "
        f"flip on bipartite roots, n={root_sizes}; exponents {cycle_slope:.2f}, "
        f"{root_slope:.2f} <= 0.5"
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    fixture = tmp_path / "fixture.g6"
    graphs = generate_corpus(
        "random-clawfree-via-linegraph", 12, seed=42, n_min=6, n_max=12
    )
    fixture.write_text("".join(graph_to_graph6(g) + "\n" for g in graphs))

    def snapshot():
        out = io.StringIO()
        code = run_cli(["recognize", str(fixture), "--trace"], out)
        records = [json.loads(ln) for ln in out.getvalue().splitlines()]
        for r in records:
            r.pop("timing_ms")
        gen_out = io.StringIO()
        run_cli(["gen", "--kind", "random-subcubic", "--count", "25", "--seed", "3"], gen_out)
        chk_out = io.StringIO()
        run_cli(["corpus-check", "--samples", "6", "--seed", "5", "--max-n", "10"], chk_out)
        chk_records = [
            json.loads(ln) for ln in chk_out.getvalue().splitlines() if ln.startswith("{")
        ]
        for r in chk_records:
            r.pop("timing_ms")
        return (
            code,
            json.dumps(records, sort_keys=True),
            gen_out.getvalue(),
            json.dumps(chk_records, sort_keys=True),
        )

    runs = [snapshot() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    print(
        "\nACCEPTANCE 8 (determinism): PASS - 3 replays byte-identical "
        "(timing excluded) across recognize/gen/corpus-check"
    )
