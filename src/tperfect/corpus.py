"""Seeded corpus generation and exhaustive small-graph enumeration."""

from __future__ import annotations

import random
from typing import Callable

from .core.graph import Graph
from .core.isomorphism import canonical_form
from .core.named import NAMED_CATALOGUE, make_named
from .errors import GraphInputError
from .linegraph import line_graph
from .recognizer import find_claw

KINDS = ("random-subcubic", "random-clawfree-via-linegraph", "named")


def random_subcubic_graph(rng: random.Random, n: int) -> Graph:
    """Degree-capped edge insertion: shuffle all pairs and add while both
    endpoints stay below degree 3, up to a random target edge count."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    lo = max(0, n - 1)
    hi = (3 * n) // 2
    target = rng.randint(min(lo, hi), hi)
    deg = [0] * n
    edges = []
    for i, j in pairs:
        if len(edges) >= target:
            break
        if deg[i] < 3 and deg[j] < 3:
            edges.append((i, j))
            deg[i] += 1
            deg[j] += 1
    return Graph(n, edges)


def generate_corpus(
    kind: str,
    count: int,
    seed: int,
    n_min: int = 4,
    n_max: int = 12,
) -> list[Graph]:
    """Deterministic corpus of `count` graphs for the given kind.

    For the claw-free kind, roots are random subcubic graphs and sizes are
    bounded so the line graph has between n_min and n_max vertices; the
    named kind ignores count/seed and returns the fixed catalogue.  Raises
    GraphInputError when n_min > n_max, n_min < 0, or, for the claw-free
    kind, n_min < 1.
    """
    if count < 1:
        raise GraphInputError("corpus size must be at least 1")
    if kind == "named":
        return [make_named(name) for name in NAMED_CATALOGUE]
    # on an empty range the claw-free sampler never returns
    low = 1 if kind == "random-clawfree-via-linegraph" else 0
    if not low <= n_min <= n_max:
        raise GraphInputError(
            f"size range {n_min}..{n_max} is empty or starts below {low}"
        )
    rng = random.Random(seed)
    out: list[Graph] = []
    if kind == "random-subcubic":
        while len(out) < count:
            out.append(random_subcubic_graph(rng, rng.randint(n_min, n_max)))
        return out
    if kind == "random-clawfree-via-linegraph":
        while len(out) < count:
            root_n = rng.randint(max(2, (2 * n_min) // 3), n_max + 2)
            root = random_subcubic_graph(rng, root_n)
            if not (n_min <= root.m <= n_max):
                continue
            g, _ = line_graph(root)
            if find_claw(g) is not None:
                raise AssertionError("line graph produced an induced claw")
            out.append(g)
        return out
    raise GraphInputError(f"unknown corpus kind {kind!r} (choose from {KINDS})")


def enumerate_connected_graphs(
    max_n: int,
    keep: Callable[[Graph], bool] | None = None,
) -> list[Graph]:
    """All connected graphs on 1..max_n vertices up to isomorphism whose
    every induced subgraph satisfies `keep` (a hereditary predicate such
    as claw-freeness or a degree bound).

    Canonical augmentation: grow by one vertex over every neighborhood
    subset, prune with the predicate, deduplicate by canonical form.
    Connectivity is filtered at the end (disconnected intermediates may
    still grow into connected graphs).
    """
    levels: list[list[Graph]] = [[Graph(1)]]
    for n in range(2, max_n + 1):
        seen: set[tuple] = set()
        nxt: list[Graph] = []
        for g in levels[-1]:
            base = list(g.edges)
            for mask in range(1 << g.n):
                edges = base + [
                    (v, g.n) for v in range(g.n) if mask >> v & 1
                ]
                cand = Graph(g.n + 1, edges)
                if keep is not None and not keep(cand):
                    continue
                canon = canonical_form(cand)
                if canon in seen:
                    continue
                seen.add(canon)
                nxt.append(cand)
        levels.append(nxt)
    out: list[Graph] = []
    for level in levels:
        out.extend(g for g in level if g.is_connected())
    return out


def is_clawfree(g: Graph) -> bool:
    return find_claw(g) is None
