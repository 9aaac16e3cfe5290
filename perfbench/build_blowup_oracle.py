"""Rebuild blowup_oracle.json: the brute-force oracle's verdict for every
clique blow-up pattern the `nonline-blocks` workload can draw.

The table covers all non-line patterns, so it serves every seed.  Run from
the root of the repository (a few minutes; above 12 vertices the oracle
takes seconds per graph):

    python3 perfbench/build_blowup_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tperfect import Graph  # noqa: E402
from tperfect.oracle import is_t_perfect_bruteforce  # noqa: E402


def main() -> None:
    answers = {}
    for sizes in workloads.nonline_blowup_patterns():
        g = workloads.blowup(sizes)
        graph = Graph(g.number_of_nodes(), list(g.edges))
        key = workloads.pattern_key(sizes)
        answers[key] = is_t_perfect_bruteforce(graph, size_guard=workloads.BLOWUP_MAX_VERTICES)
        print(key, answers[key], flush=True)
    table = {"size_guard": workloads.BLOWUP_MAX_VERTICES, "t_perfect": answers}
    workloads.ORACLE_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
