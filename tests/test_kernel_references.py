"""The set-level line-graph kernel and the vertex-stack block decomposition
against the per-edge implementations they replaced, kept here verbatim in
behaviour as references: same roots, same edge-to-vertex maps, same
`BlockDecomposition`, same errors."""

import random
from itertools import combinations

from tperfect.core import Graph, complete_graph, cycle_graph
from tperfect.core.connectivity import BlockDecomposition, blocks
from tperfect.core.graph import edge_key
from tperfect.corpus import random_subcubic_graph
from tperfect.errors import GraphInputError
from tperfect.linegraph import (
    RootMapping,
    _root_from_seed,
    line_graph,
    recognize_line_graph,
)

# -- references: per-edge cell propagation and edge-stack blocks ----------


def ref_propagate_cells(g, seed):
    cells = [seed]
    cell_count = {v: 0 for v in range(g.n)}
    covered = set()
    for a, b in combinations(seed, 2):
        covered.add(edge_key(a, b))
    for v in seed:
        cell_count[v] += 1
    queue = list(seed)
    processed = set()
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if v in processed:
            continue
        processed.add(v)
        uncovered = [w for w in g.sorted_neighbors(v) if edge_key(v, w) not in covered]
        if not uncovered:
            continue
        if cell_count[v] >= 2:
            return None
        cell = tuple([v] + uncovered)
        for a, b in combinations(cell, 2):
            if not g.has_edge(a, b) or edge_key(a, b) in covered:
                return None
        for a, b in combinations(cell, 2):
            covered.add(edge_key(a, b))
        for w in cell:
            cell_count[w] += 1
            if cell_count[w] > 2:
                return None
        cells.append(cell)
        queue.extend(uncovered)
    if len(covered) != g.m:
        return None
    return cells


def ref_root_from_cells(g, cells):
    cell_ids = {v: [] for v in range(g.n)}
    for i, cell in enumerate(cells):
        for v in cell:
            cell_ids[v].append(i)
    next_id = len(cells)
    edge_to_vertex = {}
    root_edges = []
    for v in range(g.n):
        ids = cell_ids[v]
        if len(ids) == 2:
            e = edge_key(ids[0], ids[1])
        elif len(ids) == 1:
            e = edge_key(ids[0], next_id)
            next_id += 1
        else:
            return None
        if e in edge_to_vertex:
            return None
        edge_to_vertex[e] = v
        root_edges.append(e)
    return RootMapping(Graph(next_id, root_edges), edge_to_vertex)


def ref_verify(rm, g):
    """L(root) == g by building L(root)'s whole edge set."""
    if set(rm.edge_to_vertex) != set(rm.root.edges):
        return False
    if sorted(rm.edge_to_vertex.values()) != list(range(g.n)):
        return False
    incident = {}
    for e in rm.root.edges:
        for w in e:
            incident.setdefault(w, []).append(e)
    derived = set()
    for es in incident.values():
        for e, f in combinations(es, 2):
            derived.add(edge_key(rm.edge_to_vertex[e], rm.edge_to_vertex[f]))
    return derived == set(g.edges)


def ref_candidates(g):
    x, y = g.edges[0]
    common = sorted(g.neighbors(x) & g.neighbors(y))
    widest = tuple([x, y] + common)
    return [widest] + [tuple(v for v in widest if v != z) for z in common]


def ref_recognize(g):
    if not g.is_connected():
        raise GraphInputError("recognize_line_graph expects a connected graph")
    if g.n == 0:
        return None
    if g.n == 1:
        return RootMapping(Graph(2, [(0, 1)]), {(0, 1): 0})
    for cand in ref_candidates(g):
        if not g.is_clique(cand):
            continue
        cells = ref_propagate_cells(g, cand)
        if cells is None:
            continue
        rm = ref_root_from_cells(g, cells)
        if rm is not None and ref_verify(rm, g):
            return rm
    return None


def ref_blocks(g):
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [None] * g.n
    cut = set()
    edge_stack = []
    raw_blocks = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        if g.degree(root) == 0:
            raw_blocks.append({root})
            disc[root] = timer
            timer += 1
            continue
        root_children = 0
        stack = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        nbrs = {root: g.sorted_neighbors(root)}
        while stack:
            v, i = stack[-1]
            if i < len(nbrs[v]):
                stack[-1] = (v, i + 1)
                w = nbrs[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    edge_stack.append((v, w))
                    nbrs[w] = g.sorted_neighbors(w)
                    stack.append((w, 0))
                    if v == root:
                        root_children += 1
                elif w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        comp = set()
                        while edge_stack:
                            a, b = edge_stack[-1]
                            if disc[a] < disc[v] and a != u:
                                break
                            edge_stack.pop()
                            comp.add(a)
                            comp.add(b)
                            if (a, b) == (u, v):
                                break
                        raw_blocks.append(comp)
                        if u != root or root_children > 1:
                            cut.add(u)
    ordered = sorted(raw_blocks, key=lambda b: (min(b), sorted(b)))
    blks = tuple(frozenset(b) for b in ordered)
    tree = tuple((i, c) for i, b in enumerate(blks) for c in sorted(b) if c in cut)
    return BlockDecomposition(blks, frozenset(cut), tree)


# -- corpora --------------------------------------------------------------


def relabelled(rnd, g):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def random_root(rnd, n):
    if rnd.random() < 0.5:
        return random_subcubic_graph(rnd, n)
    p = rnd.uniform(0.15, 0.6)
    return Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


def corpus(seed, count):
    """Random graphs (many disconnected, some with isolated vertices, many
    not line graphs), relabelled line graphs of random roots, and K3."""
    rnd = random.Random(seed)
    out = [complete_graph(3), Graph(0), Graph(1), Graph(2), Graph(3, [(0, 1)])]
    while len(out) < count:
        if rnd.random() < 0.4:
            n = rnd.randint(0, 11)
            p = rnd.uniform(0.1, 0.8)
            out.append(Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p]))
            continue
        root = random_root(rnd, rnd.randint(2, 16))
        if root.m:
            out.append(relabelled(rnd, line_graph(root)[0]))
    return out


def outcome(fn, g):
    try:
        rm = fn(g)
    except GraphInputError as exc:
        return ("error", str(exc))
    return None if rm is None else (rm.root, rm.edge_to_vertex)


class TestLineGraphKernel:
    def test_recognition_matches_reference(self):
        kinds = {"root": 0, "none": 0, "error": 0}
        for g in corpus(11, 3000):
            got = outcome(recognize_line_graph, g)
            assert got == outcome(ref_recognize, g), g.edges
            kinds["none" if got is None else "error" if got[0] == "error" else "root"] += 1
        assert min(kinds.values()) > 200, kinds

    def test_every_seed_matches_reference(self):
        # failed candidates too: the partition fails on exactly the same seeds
        seeds = 0
        for g in corpus(12, 1500):
            if g.m == 0:
                continue
            for cand in ref_candidates(g):
                if not g.is_clique(cand):
                    continue
                cells = ref_propagate_cells(g, cand)
                want = None if cells is None else ref_root_from_cells(g, cells)
                got = _root_from_seed(g, cand)
                if want is None:
                    assert got is None, (g.edges, cand)
                else:
                    assert (got.root, got.edge_to_vertex) == (want.root, want.edge_to_vertex)
                seeds += 1
        assert seeds > 2000

    def test_disconnected_inputs_raise_the_same_error(self):
        for g in (Graph(2), Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])):
            assert outcome(recognize_line_graph, g) == outcome(ref_recognize, g)
            assert outcome(recognize_line_graph, g)[0] == "error"


class TestVerifyAgainst:
    def test_agrees_with_full_edge_set_check(self):
        # perturbed mappings: the O(m) count check and the reference agree
        rnd = random.Random(13)
        rejected = 0
        for g in corpus(13, 800):
            rm = recognize_line_graph(g) if g.is_connected() else None
            if rm is None or rm.root.m < 2:
                continue
            assert rm.verify_against(g) and ref_verify(rm, g)
            items = list(rm.edge_to_vertex.items())
            (e, v), (f, w) = rnd.sample(items, 2)
            swapped = RootMapping(rm.root, {**rm.edge_to_vertex, e: w, f: v})
            assert swapped.verify_against(g) == ref_verify(swapped, g)
            rejected += not swapped.verify_against(g)
        assert rejected > 100

    def test_rejects_two_swapped_vertices(self):
        # P4 = L(P5): swapping an end and an inner vertex breaks adjacency
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rm = recognize_line_graph(g)
        inverse = {v: e for e, v in rm.edge_to_vertex.items()}
        bad = {**rm.edge_to_vertex, inverse[0]: 1, inverse[1]: 0}
        assert not RootMapping(rm.root, bad).verify_against(g)

    def test_rejects_a_missing_or_extra_edge(self):
        g = cycle_graph(6)
        rm = recognize_line_graph(g)
        assert rm.verify_against(g)
        assert not rm.verify_against(g.without_edge(0, 1))  # L(root) has an edge g lacks
        assert not rm.verify_against(g.with_edge(0, 3))  # g has an edge L(root) lacks

    def test_rejects_a_broken_bijection(self):
        g = cycle_graph(5)
        rm = recognize_line_graph(g)
        e = rm.root.edges[0]
        assert not RootMapping(rm.root, {**rm.edge_to_vertex, e: 7}).verify_against(g)
        short = {f: v for f, v in rm.edge_to_vertex.items() if f != e}
        assert not RootMapping(rm.root, short).verify_against(g)


class TestBlocksKernel:
    def test_matches_edge_stack_reference(self):
        rnd = random.Random(14)
        for g in corpus(14, 3000):
            assert blocks(g) == ref_blocks(g), g.edges
        for _ in range(300):
            root = random_root(rnd, rnd.randint(2, 60))
            assert blocks(root) == ref_blocks(root), root.edges

    def test_matches_reference_on_trees_and_long_cycles(self):
        rnd = random.Random(15)
        for n in (2, 3, 50, 400):
            tree = Graph(n, [(rnd.randrange(v), v) for v in range(1, n)])
            assert blocks(tree) == ref_blocks(tree)
            assert len(blocks(tree).blocks) == n - 1
            assert blocks(cycle_graph(n + 1)) == ref_blocks(cycle_graph(n + 1))
