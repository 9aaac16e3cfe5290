import random
from itertools import combinations

import pytest

from tperfect.core.graph import Graph, bfs_path, edge_key
from tperfect.errors import GraphInputError


def degree_sequence(g):
    return tuple(sorted(g.degree(v) for v in range(g.n)))


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


def two_odd_edge_instances(rnd, count):
    """2-connected subcubic graphs with exactly two odd-class edges, with
    their views: a random subcubic graph keeps two odd-class edges of its
    BFS-forest colouring and, with some probability each, its even-class
    edges; the block holding both odd edges is the instance."""
    from tperfect.core.connectivity import blocks
    from tperfect.corpus import random_subcubic_graph
    from tperfect.theta import make_view, spanning_tree_view

    made = 0
    while made < count:
        g = random_subcubic_graph(rnd, rnd.randint(5, 16))
        labels = spanning_tree_view(g).labels
        odd = [e for e in g.edges if labels[e[0]] == labels[e[1]]]
        if len(odd) < 2:
            continue
        e1, e2 = rnd.sample(odd, 2)
        drop = rnd.choice((0.0, 0.25))
        h0 = Graph(
            g.n,
            [e for e in g.edges if e in (e1, e2) or e not in odd and rnd.random() >= drop],
        )
        blk = next(b for b in blocks(h0) if set(e1) <= b)
        if not set(e2) <= blk:
            continue
        h, old_to_new = h0.induced(blk)
        sub_labels = [0] * h.n
        for old, new in old_to_new.items():
            sub_labels[new] = labels[old]
        made += 1
        yield h, make_view(h, sub_labels)


def _bipartite_side(rnd, n):
    """A random connected bipartite subcubic graph on n vertices: a random
    tree of maximum degree 3, coloured by depth parity, plus random edges
    between the colours.  Returns (edges, labels, degrees)."""
    deg, labels, edges = [0] * n, [0] * n, set()
    for v in range(1, n):
        u = rnd.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        labels[v] = labels[u] ^ 1
        deg[u] += 1
        deg[v] += 1
    for _ in range(rnd.randint(0, n // 2)):
        u, v = sorted(rnd.sample(range(n), 2))
        if labels[u] != labels[v] and deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return sorted(edges), labels, deg


def glued_two_odd_instances(rnd, count):
    """Two random connected bipartite subcubic sides of 3 to 12 vertices
    joined by two odd-class and two even-class cut edges, with their
    views (the sides' colourings).  Half the instances give the four cut
    edges distinct ends, so the two-odd-edge split meets both sides with
    and without a vertex shared by an odd and an even cut edge."""
    from tperfect.theta import make_view

    made = 0
    while made < count:
        na, nb = rnd.randint(3, 12), rnd.randint(3, 12)
        edges_a, labels_a, deg_a = _bipartite_side(rnd, na)
        edges_b, labels_b, deg_b = _bipartite_side(rnd, nb)
        labels, deg = labels_a + labels_b, deg_a + deg_b
        edges = edges_a + [(a + na, b + na) for a, b in edges_b]
        distinct_ends = rnd.random() < 0.5
        cut = []
        for odd in (True, True, False, False):
            used = {w for e in cut for w in e} if distinct_ends else set()
            choices = [
                (a, b)
                for a in range(na)
                for b in range(na, na + nb)
                if deg[a] < 3 and deg[b] < 3 and (labels[a] == labels[b]) == odd
                and (a, b) not in cut and not {a, b} & used
            ]
            if not choices:
                break
            a, b = rnd.choice(choices)
            cut.append((a, b))
            deg[a] += 1
            deg[b] += 1
        if len(cut) < 4:
            continue
        h = Graph(na + nb, edges + cut)
        made += 1
        yield h, make_view(h, labels)


SPLIT_BASE = (
    (0, 5), (0, 11), (1, 4), (1, 5), (1, 8), (2, 3), (2, 6),
    (2, 7), (3, 10), (4, 7), (5, 6), (6, 9), (8, 9), (10, 11),
)


def split_family(k):
    """G_k: the 12-vertex graph SPLIT_BASE with every edge except (2, 3)
    and (8, 9) replaced by a path of 2k + 1 edges, so n = 12 + 24k.  Its
    skewed-theta decision reaches the two-odd-edge split with sides of
    about n / 2 vertices."""
    n, edges = 12, []
    for u, v in SPLIT_BASE:
        path = [u]
        if (u, v) not in ((2, 3), (8, 9)):
            path += range(n, n + 2 * k)
            n += 2 * k
        edges += zip(path, path[1:] + [v])
    return Graph(n, edges)


def random_bridgeless_cubic_graph(rnd, n):
    """Pairing model: three points per vertex, matched at random, kept
    when the result is simple and 2-connected (for a cubic graph, the
    same as connected and bridgeless)."""
    from tperfect.core import blocks

    while True:
        points = [v for v in range(n) for _ in range(3)]
        rnd.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            g = Graph(n, sorted(edges))
            if len(blocks(g)) == 1:
                return g


def subdivided_cubic_root(rnd, n_cubic):
    """A bridgeless cubic graph with every edge but one subdivided once.
    Every path between cubic vertices is odd exactly when it uses the
    whole edge, and at most one path of a theta can use it, so no skewed
    theta exists."""
    cubic = random_bridgeless_cubic_graph(rnd, n_cubic)
    kept = rnd.choice(cubic.edges)
    edges = [kept]
    for u, v in cubic.edges:
        if (u, v) != kept:
            mid = n_cubic + len(edges) // 2
            edges += [(u, mid), (mid, v)]
    return Graph(n_cubic + len(edges) // 2, edges)


def planted_theta_root(rnd, n):
    """A connected subcubic graph on n vertices around a planted skewed
    theta between vertices 0 and 1 (path lengths odd, odd, even): fresh
    vertices hang off random vertices of degree below 3, then about n / 4
    chords join such vertices."""
    deg, edges, nxt = [0] * n, set(), 2

    def add(u, v):
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1

    for length in (rnd.choice((1, 3, 5)), rnd.choice((3, 5)), rnd.choice((2, 4))):
        path = [0, *range(nxt, nxt + length - 1), 1]
        nxt += length - 1
        for a, b in zip(path, path[1:]):
            add(a, b)
    for v in range(nxt, n):
        add(rnd.choice([w for w in range(v) if deg[w] < 3]), v)
    for _ in range(n // 4):
        open_ = [w for w in range(n) if deg[w] < 3]
        if len(open_) < 2:
            break
        u, v = rnd.sample(open_, 2)
        if (min(u, v), max(u, v)) not in edges:
            add(u, v)
    return Graph(n, sorted(edges))


def golden_theta_roots():
    """Seeded non-bipartite subcubic roots, as (name, graph) pairs:
    subdivided cubic roots, planted-theta roots and random subcubic
    graphs of 19 to 300 vertices, then 200 random subcubic graphs of 8 to
    20 vertices, which reach flips, phase two and every branch of
    `triads` that phase one meets.  `tests/data/theta_traces.json` holds
    the `has_skewed_theta` trace of each."""
    from tperfect.corpus import random_subcubic_graph

    rnd = random.Random(15)
    for n_cubic in (8, 12, 16, 24, 40, 60, 80, 120):
        yield f"subdivided-cubic-{n_cubic}", subdivided_cubic_root(rnd, n_cubic)
    for n in range(20, 301, 20):
        yield f"planted-theta-{n}", planted_theta_root(rnd, n)
    for n in range(20, 301, 20):
        g = random_subcubic_graph(rnd, n)
        if not g.is_bipartite():
            yield f"random-subcubic-{n}", g
    small = 0
    while small < 200:
        g = random_subcubic_graph(rnd, rnd.randint(8, 20))
        if not g.is_bipartite():
            small += 1
            yield f"small-random-{small}", g


# -- references for `theta._even_bfs_tree` and `theta._tree_cycle_edges`:
# a BFS spanning tree and the fundamental cycle of a non-tree edge


def bfs_spanning_tree(g, root=0):
    """Edge set of a deterministic BFS spanning tree of a connected graph.

    Raises GraphInputError when the search from `root` misses a vertex.
    """
    tree = set()
    seen = [False] * g.n
    seen[root] = True
    queue = [root]
    for x in queue:
        for y in g.sorted_neighbors(x):
            if not seen[y]:
                seen[y] = True
                tree.add(edge_key(x, y))
                queue.append(y)
    if len(queue) < g.n:
        raise GraphInputError("spanning tree of a disconnected graph")
    return tree


def spanning_tree_fundamental_cycle(g, tree, e):
    """The unique cycle in tree + e, as an ordered vertex sequence starting
    and ending at e's endpoints (the closing edge e is implicit).

    `tree` is a spanning tree of g as a graph on g's vertices.
    """
    e = edge_key(*e)
    in_range = 0 <= e[0] and e[1] < g.n
    if in_range and tree.has_edge(*e):
        raise GraphInputError(f"edge {e} already in the spanning tree")
    if not (in_range and g.has_edge(*e)):
        raise GraphInputError(f"edge {e} not in the graph")
    path = bfs_path(tree, {e[0]}, {e[1]})
    if path is None:
        raise GraphInputError("tree does not span the endpoints of e")
    return path
