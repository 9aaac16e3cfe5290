"""Seeded input families for the benchmark, each with its expected verdict.

Every generator builds its graphs with networkx from a `random.Random`
seeded by the caller, checks the construction property that fixes the
expected verdict while it builds, and returns `Case`s.  The expected
verdict never comes from the recognizer under test:

- a line graph of a bipartite subcubic root is perfect (Koenig) with
  cliques of size at most three, so it is t-perfect;
- a line graph of a subcubic root with a planted skewed theta is not
  t-perfect (the paper's line-graph characterisation);
- a cubic root with every edge but one subdivided has no skewed theta, so
  its line graph is t-perfect (argument in `check_one_odd_edge`);
- a squared cycle C_n^2 with n >= 11 is a 3-connected, claw-free, non-line
  block that is none of the paper's exceptional graphs, so it is not
  t-perfect;
- a clique blow-up of a cycle is looked up in `blowup_oracle.json`, the
  brute-force oracle's answers for every pattern the generator can draw.

A violated construction property raises `ConstructionError`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

ORACLE_TABLE = Path(__file__).with_name("blowup_oracle.json")

# workload make-up; README.md explains the choice of each number
LINE_MIXED_GRAPHS = 120
LINE_ROOT_SIZES = (20, 300)
THETA_HARD_GRAPHS = 192
THETA_HARD_CUBIC_SIZES = (10, 12, 14, 12)
BLOWUP_MAX_VERTICES = 16
# geometric from 11 to 100: the cost grows like n^3, so this keeps a round
# short while squared cycles stay a sixth of the graphs
SQUARED_CYCLE_SIZES = tuple(round(11 * (100 / 11) ** (i / 19)) for i in range(20))


class ConstructionError(RuntimeError):
    """A generated graph lacks the property its expected verdict rests on."""


@dataclass(frozen=True)
class Case:
    family: str
    graph: nx.Graph  # vertices 0..n-1
    t_perfect: bool  # the expected verdict


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConstructionError(what)


def _relabel(rng: random.Random, g: nx.Graph) -> nx.Graph:
    """Copy of `g` on vertices 0..n-1 in a seeded random order, so the
    seed also varies the recognizer's traversal orders."""
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    out = nx.Graph()
    out.add_nodes_from(range(len(nodes)))
    out.add_edges_from((index[u], index[v]) for u, v in g.edges)
    return out


def _line_graph(rng: random.Random, root: nx.Graph) -> nx.Graph:
    return _relabel(rng, nx.line_graph(root))


# ---------------------------------------------------------------------------
# line-mixed: bipartite roots and roots with a planted skewed theta
# ---------------------------------------------------------------------------


def _grow_subcubic(rng: random.Random, g: nx.Graph, n: int, colour=None) -> None:
    """Attach fresh vertices to random vertices of degree < 3 until `g` has
    `n` vertices, then add about n/4 chords between vertices of degree < 3.
    With `colour`, every vertex gets the opposite colour of its attachment
    point and chords join opposite colours only, which keeps `g`
    bipartite."""
    open_ = [v for v in g.nodes if g.degree(v) < 3]
    while g.number_of_nodes() < n:
        u = rng.choice(open_)
        v = g.number_of_nodes()
        g.add_edge(u, v)
        if colour is not None:
            colour[v] = 1 - colour[u]
        open_.append(v)
        if g.degree(u) == 3:
            open_.remove(u)
    for _ in range(n // 4):
        open_ = [v for v in g.nodes if g.degree(v) < 3]
        if len(open_) < 2:
            break
        u, v = rng.sample(open_, 2)
        if g.has_edge(u, v) or (colour is not None and colour[u] == colour[v]):
            continue
        g.add_edge(u, v)


def bipartite_root(rng: random.Random, n: int) -> nx.Graph:
    root = nx.Graph()
    root.add_node(0)
    _grow_subcubic(rng, root, n, colour={0: 0})
    _require(nx.is_connected(root), "bipartite root is connected")
    _require(nx.is_bipartite(root), "bipartite root is bipartite")
    _require(max(d for _, d in root.degree) <= 3, "bipartite root is subcubic")
    return root


def check_theta(root: nx.Graph, paths: list[list[int]]) -> None:
    """Linear check that `paths` form a skewed theta in `root`: three paths
    between the same two ends, internally disjoint, edge-disjoint, with
    lengths odd, odd and even."""
    _require(len(paths) == 3, "a theta has three paths")
    x, y = paths[0][0], paths[0][-1]
    _require(x != y, "theta branch vertices differ")
    interiors: set[int] = set()
    edges: set[frozenset[int]] = set()
    for p in paths:
        _require(p[0] == x and p[-1] == y, "theta paths share their ends")
        for a, b in zip(p, p[1:]):
            _require(root.has_edge(a, b), "theta path edge lies in the root")
            e = frozenset((a, b))
            _require(e not in edges, "theta paths are edge-disjoint")
            edges.add(e)
        inner = p[1:-1]
        _require(x not in inner and y not in inner, "theta paths avoid their ends")
        _require(not interiors.intersection(inner), "theta paths are internally disjoint")
        _require(len(set(inner)) == len(inner), "theta paths are simple")
        interiors.update(inner)
    parities = sorted((len(p) - 1) % 2 for p in paths)
    _require(parities == [0, 1, 1], "theta path parities are odd, odd, even")


def theta_root(rng: random.Random, n: int) -> nx.Graph:
    """A connected subcubic root on `n` vertices around a planted skewed
    theta with path lengths (odd, odd, even)."""
    odd = [rng.choice((1, 3, 5)), rng.choice((3, 5))]
    even = rng.choice((2, 4))
    root = nx.Graph()
    paths, nxt = [], 2
    for length in (*odd, even):
        p = [0, *range(nxt, nxt + length - 1), 1]
        nxt += length - 1
        nx.add_path(root, p)
        paths.append(p)
    _grow_subcubic(rng, root, n)
    check_theta(root, paths)
    _require(nx.is_connected(root), "theta root is connected")
    _require(max(d for _, d in root.degree) <= 3, "theta root is subcubic")
    return root


def line_mixed(rng: random.Random) -> list[Case]:
    lo, hi = LINE_ROOT_SIZES
    cases = []
    for i in range(LINE_MIXED_GRAPHS):
        n = lo + (hi - lo) * i // (LINE_MIXED_GRAPHS - 1)
        if i % 2 == 0:
            cases.append(Case("bipartite-root", _line_graph(rng, bipartite_root(rng, n)), True))
        else:
            cases.append(Case("theta-root", _line_graph(rng, theta_root(rng, n)), False))
    return cases


# ---------------------------------------------------------------------------
# theta-hard: subdivided cubic roots with one edge left whole
# ---------------------------------------------------------------------------


def check_one_odd_edge(root: nx.Graph, cubic: set[int], kept: tuple[int, int]) -> None:
    """Check, in linear time, that 2-colouring root - kept puts every cubic
    vertex on one side and that `kept` joins two cubic vertices.

    Then a path between cubic vertices has odd length exactly when it uses
    `kept`.  Branch vertices of a theta have degree 3, so they are cubic,
    and at most one of its three paths uses `kept`: at most one path is
    odd, and no skewed theta exists."""
    x, y = kept
    _require(root.has_edge(x, y) and x in cubic and y in cubic, "kept edge joins cubic vertices")
    rest = root.copy()
    rest.remove_edge(x, y)
    _require(nx.is_connected(rest), "root minus the kept edge is connected")
    _require(nx.is_bipartite(rest), "root minus the kept edge is bipartite")
    side = nx.bipartite.color(rest)
    _require(len({side[v] for v in cubic}) == 1, "cubic vertices share a side")
    _require(all(root.degree(v) == 3 for v in cubic), "cubic vertices have degree 3")
    _require(all(root.degree(v) == 2 for v in root if v not in cubic), "subdivision vertices have degree 2")


def subdivided_cubic_root(rng: random.Random, n_cubic: int) -> nx.Graph:
    while True:
        cubic = nx.random_regular_graph(3, n_cubic, seed=rng.randrange(2**32))
        # bridgeless, so the kept edge lies on a cycle
        if nx.is_connected(cubic) and not nx.has_bridges(cubic):
            break
    edges = sorted(cubic.edges)
    kept = edges[rng.randrange(len(edges))]
    root = nx.Graph()
    root.add_edge(*kept)
    nxt = n_cubic
    for u, v in edges:
        if (u, v) != kept:
            root.add_edge(u, nxt)
            root.add_edge(nxt, v)
            nxt += 1
    whole = [e for e in root.edges if e[0] < n_cubic and e[1] < n_cubic]
    _require(len(whole) == 1, "exactly one cubic edge is left unsubdivided")
    check_one_odd_edge(root, set(range(n_cubic)), kept)
    return root


def theta_hard(rng: random.Random) -> list[Case]:
    sizes = THETA_HARD_CUBIC_SIZES
    return [
        Case(
            f"subdivided-cubic-{sizes[i % len(sizes)]}",
            _line_graph(rng, subdivided_cubic_root(rng, sizes[i % len(sizes)])),
            True,
        )
        for i in range(THETA_HARD_GRAPHS)
    ]


# ---------------------------------------------------------------------------
# nonline-blocks: squared cycles and clique blow-ups of cycles
# ---------------------------------------------------------------------------


def is_line_graph(g: nx.Graph) -> bool:
    try:
        nx.inverse_line_graph(g)
    except nx.NetworkXError:
        return False
    return True


def squared_cycle(n: int) -> nx.Graph:
    g = nx.cycle_graph(n)
    g.add_edges_from((i, (i + 2) % n) for i in range(n))
    # the exceptional graphs have at most 10 vertices
    _require(n >= 11, "squared cycle is not exceptional")
    _require(nx.node_connectivity(g) >= 3, "squared cycle is 3-connected")
    _require(not is_line_graph(g), "squared cycle is not a line graph")
    return g


def blowup_pattern_ok(sizes: tuple[int, ...]) -> bool:
    """Clique sizes 1 or 2 around a cycle of length >= 4, at most
    BLOWUP_MAX_VERTICES vertices, no three doubled positions in a row."""
    k = len(sizes)
    return (
        k >= 4
        and sum(sizes) <= BLOWUP_MAX_VERTICES
        and set(sizes) <= {1, 2}
        and not any(sizes[i] == sizes[(i + 1) % k] == sizes[(i + 2) % k] == 2 for i in range(k))
    )


def canonical_pattern(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation or reflection: blow-ups of equal patterns are
    isomorphic."""
    k = len(sizes)
    return min(
        s[r:] + s[:r] for s in (tuple(sizes), tuple(reversed(sizes))) for r in range(k)
    )


def pattern_key(sizes: tuple[int, ...]) -> str:
    return "".join(map(str, canonical_pattern(sizes)))


def blowup(sizes: tuple[int, ...]) -> nx.Graph:
    """Replace position i of a cycle by a clique of size sizes[i]; cliques
    at consecutive positions are joined completely."""
    cliques, start = [], 0
    for s in sizes:
        cliques.append(range(start, start + s))
        start += s
    g = nx.Graph()
    g.add_nodes_from(range(start))
    for i, q in enumerate(cliques):
        g.add_edges_from(itertools.combinations(q, 2))
        g.add_edges_from(itertools.product(q, cliques[(i + 1) % len(cliques)]))
    return g


def nonline_blowup_patterns() -> list[tuple[int, ...]]:
    """Every canonical blow-up pattern whose blow-up is not a line graph."""
    found = set()
    for k in range(4, BLOWUP_MAX_VERTICES + 1):
        for sizes in itertools.product((1, 2), repeat=k):
            if blowup_pattern_ok(sizes):
                found.add(canonical_pattern(sizes))
    return sorted(p for p in found if not is_line_graph(blowup(p)))


def load_oracle_table() -> dict[str, bool]:
    with open(ORACLE_TABLE) as fh:
        return json.load(fh)["t_perfect"]


def nonline_blocks(rng: random.Random) -> list[Case]:
    """Every other non-line blow-up pattern in sorted order and every size
    in SQUARED_CYCLE_SIZES: the seed draws labels and order, and the
    make-up is the same for every seed."""
    table = load_oracle_table()
    cases = []
    for sizes in nonline_blowup_patterns()[::2]:
        key = pattern_key(sizes)
        _require(key in table, f"blow-up pattern {key} has an oracle answer")
        cases.append(Case(f"blowup-{key}", _relabel(rng, blowup(sizes)), table[key]))
    for n in SQUARED_CYCLE_SIZES:
        cases.append(Case(f"squared-cycle-{n}", _relabel(rng, squared_cycle(n)), False))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "line-mixed": line_mixed,
    "theta-hard": theta_hard,
    "nonline-blocks": nonline_blocks,
}


def generate(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def to_graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, nodes=range(g.number_of_nodes()), header=False).decode().strip()
