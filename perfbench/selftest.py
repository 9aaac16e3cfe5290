"""Checks the benchmark's own checkers; exits non-zero on the first miss.

    python3 perfbench/selftest.py

- every wrong verdict and every exception counts as a failed operation;
- the construction checks reject graphs that lack their property;
- the deciding process, fed a few graphs of each workload, agrees with
  the expected verdicts, and flipping those verdicts fails every operation.
"""

from __future__ import annotations

import random
import sys

import networkx as nx

import run
import workloads
from workloads import ConstructionError


def expect_rejected(fn, *args) -> None:
    try:
        fn(*args)
    except ConstructionError:
        return
    raise SystemExit(f"{fn.__name__}{args!r} accepted a graph without its property")


def check_score() -> None:
    expected = [True, False, True]
    right = [[True, True], [False, False], [True, True]]
    if run.score(expected, right) != (6, 0, 0):
        raise SystemExit("correct verdicts were counted as failed")
    one_wrong = [[True, False], [False, False], [True, True]]
    if run.score(expected, one_wrong) != (6, 1, 1):
        raise SystemExit("a wrong verdict was not counted as failed")
    raised = [[True, True], [False, "SizeGuardError: cap"], [True, True]]
    if run.score(expected, raised) != (6, 1, 0):
        raise SystemExit("an exception was not counted as failed")


def check_construction_checks() -> None:
    # thetas whose parities are not odd, odd, even
    even_theta = nx.Graph()
    paths = [[0, 2, 1], [0, 3, 4, 5, 1], [0, 6, 1]]
    for p in paths:
        nx.add_path(even_theta, p)
    expect_rejected(workloads.check_theta, even_theta, paths)
    odd_theta = nx.Graph()
    paths = [[0, 1], [0, 2, 3, 1], [0, 4, 5, 6, 7, 1]]
    for p in paths:
        nx.add_path(odd_theta, p)
    expect_rejected(workloads.check_theta, odd_theta, paths)
    # K4 with two edges left whole: two odd paths between cubic vertices
    root = nx.Graph([(0, 1), (2, 3)])
    for i, (u, v) in enumerate([(0, 2), (0, 3), (1, 2), (1, 3)]):
        root.add_edges_from([(u, 4 + i), (4 + i, v)])
    expect_rejected(workloads.check_one_odd_edge, root, {0, 1, 2, 3}, (0, 1))
    expect_rejected(workloads.squared_cycle, 10)


def check_against_decider() -> None:
    rng = random.Random(0)
    cases = [
        *workloads.line_mixed(rng)[:4],
        *workloads.theta_hard(rng)[:3],
        *workloads.nonline_blocks(rng)[:8],
    ]
    text = "".join(workloads.to_graph6(c.graph) + "\n" for c in cases)
    outcomes = run.decider(text, "--seconds", "0")["outcomes"]
    expected = [c.t_perfect for c in cases]
    if run.score(expected, outcomes) != (len(cases), 0, 0):
        raise SystemExit(f"recognizer disagrees with the construction: {outcomes}")
    flipped = [not v for v in expected]
    if run.score(flipped, outcomes) != (len(cases), len(cases), len(cases)):
        raise SystemExit("flipped verdicts were not all counted as failed")


def main() -> None:
    check_score()
    check_construction_checks()
    check_against_decider()
    print("selftest ok")


if __name__ == "__main__":
    sys.exit(main())
