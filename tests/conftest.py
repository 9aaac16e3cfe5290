import random
from itertools import combinations

import pytest

from tperfect.core.graph import Graph


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240831)


def random_graph(rnd, n, p=0.4):
    es = [e for e in combinations(range(n), 2) if rnd.random() < p]
    return Graph(n, es)


def cycle_blowup(sizes):
    """Clique blow-up of a cycle: position i becomes a clique of
    sizes[i] vertices, joined completely to the cliques next to it."""
    cliques, start = [], 0
    for s in sizes:
        cliques.append(range(start, start + s))
        start += s
    es = set()
    for i, q in enumerate(cliques):
        es.update(combinations(q, 2))
        es.update(
            (min(a, b), max(a, b))
            for a in q
            for b in cliques[(i + 1) % len(cliques)]
        )
    return Graph(start, sorted(es))


@pytest.fixture(scope="session")
def small_random_graphs():
    rnd = random.Random(7)
    out = []
    for _ in range(120):
        n = rnd.randint(1, 10)
        out.append(random_graph(rnd, n, rnd.uniform(0.15, 0.7)))
    return out


@pytest.fixture(scope="session")
def clawfree_to_nine():
    """Every connected claw-free graph on at most nine vertices, up to
    isomorphism (about half a minute to enumerate, so built once)."""
    from tperfect.corpus import enumerate_connected_graphs, is_clawfree

    return enumerate_connected_graphs(9, is_clawfree)
