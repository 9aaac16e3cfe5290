"""Kernel routines against the implementations they replaced, kept here
verbatim in behaviour as references: the set-level line-graph kernel and
the vertex-stack block decomposition (same roots, same edge-to-vertex maps,
None on every disconnected input, same blocks and cut vertices, same
errors), the searches now routed through `bfs_path` and
`Graph.connected_components` (same linkage paths, fundamental cycles and
edge components, same errors), the ring walk that replaced a path search
round the ring (same ring orders and arcs, same errors), the separation side
now found by one search over the adjacency, the BFS spanning tree and
fundamental cycles that `triads`' parent walk replaced (same tree, reached
set and cycle edges), the exhaustive two-odd-edge split that one flow per
side replaced (same verdicts and traces), the six-branch separation case
split that one symmetric parity rule replaced (same cases, children, maps
and errors), and the arc-network flow kernel that augmenting on the
graph's own adjacency replaced (same cuts, paths and None results)."""

import random
from itertools import combinations

from conftest import (
    bfs_spanning_tree,
    cycle_blowup,
    glued_two_odd_instances,
    spanning_tree_fundamental_cycle,
    two_odd_edge_instances,
)

from tperfect import theta
from tperfect.core import Graph, complete_graph, cycle_graph
from tperfect.core import flow as flows
from tperfect.core.connectivity import _first_side, _low_points, blocks, find_two_separation
from tperfect.core.graph import edge_key, identify_vertices, path_edges
from tperfect.corpus import random_subcubic_graph
from tperfect.errors import (
    GraphInputError,
    InternalInvariantError,
    NotClawFreeError,
    SizeGuardError,
    check,
)
from tperfect.parity import LinkageQuery, find_two_disjoint_paths, has_two_disjoint_odd_cycles
from tperfect.recognizer import _reduced_sides, is_t_perfect
from tperfect.theta import (
    _edge_components,
    _one_side_graph,
    _ring_arcs,
    decide_few_odd_edges,
)
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
    if g.n == 0 or not g.is_connected():
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
    return tuple(frozenset(b) for b in ordered), cut


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
    rm = fn(g)
    return None if rm is None else (rm.root, rm.edge_to_vertex)


class TestLineGraphKernel:
    def test_recognition_matches_reference(self):
        kinds = {"root": 0, "none": 0, "disconnected": 0}
        for g in corpus(11, 3000):
            rm = recognize_line_graph(g)
            got = None if rm is None else (rm.root, rm.edge_to_vertex)
            assert got == outcome(ref_recognize, g), g.edges
            # every constructed root passes both independent checkers
            assert rm is None or (rm.verify_against(g) and ref_verify(rm, g)), g.edges
            kind = "root" if got is not None else "none" if g.is_connected() else "disconnected"
            kinds[kind] += 1
        assert min(kinds.values()) > 200, kinds

    def test_roots_are_used_without_a_recheck(self, monkeypatch):
        # _root_from_seed proves L(root) == g, so neither the line-graph
        # layer nor the recognizer asks the independent checker
        def refuse(rm, g):
            raise AssertionError("verify_against on the decision path")

        monkeypatch.setattr(RootMapping, "verify_against", refuse)
        rnd = random.Random(13)
        blowups = [
            cycle_blowup([rnd.choice((1, 1, 2)) for _ in range(rnd.randint(4, 10))])
            for _ in range(200)
        ]
        graphs = corpus(11, 3000) + blowups
        roots = decided = 0
        for g in graphs:
            roots += recognize_line_graph(g) is not None
            try:
                is_t_perfect(g)
            except NotClawFreeError:
                continue
            decided += 1
        assert roots > 1000 and decided > 1500, (roots, decided)

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

    def test_disconnected_inputs_have_no_root(self):
        for g in (Graph(2), Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])):
            assert recognize_line_graph(g) is None


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


def blocks_and_cut_vertices(g):
    return blocks(g), _low_points(g)[1]


class TestBlocksKernel:
    def test_matches_edge_stack_reference(self):
        rnd = random.Random(14)
        for g in corpus(14, 3000):
            assert blocks_and_cut_vertices(g) == ref_blocks(g), g.edges
        for _ in range(300):
            root = random_root(rnd, rnd.randint(2, 60))
            assert blocks_and_cut_vertices(root) == ref_blocks(root), root.edges

    def test_matches_reference_on_trees_and_long_cycles(self):
        rnd = random.Random(15)
        for n in (2, 3, 50, 400):
            tree = Graph(n, [(rnd.randrange(v), v) for v in range(1, n)])
            assert blocks_and_cut_vertices(tree) == ref_blocks(tree)
            assert len(blocks(tree)) == n - 1
            cycle = cycle_graph(n + 1)
            assert blocks_and_cut_vertices(cycle) == ref_blocks(cycle)


# -- references: the hand-rolled searches before `bfs_path` ----------------


def ref_find_two_disjoint_paths(g, pairs, cap=64):
    if g.n > cap:
        raise SizeGuardError(
            f"two-disjoint-paths search on {g.n} vertices exceeds cap {cap}"
        )
    (s1, t1), (s2, t2) = pairs

    def connected_avoiding(a, b, banned):
        if a == b:
            return [a]
        if a in banned or b in banned:
            return None
        parent = {a: None}
        queue = [a]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in g.sorted_neighbors(x):
                if y in parent or y in banned:
                    continue
                parent[y] = x
                if y == b:
                    path = [b]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(y)
        return None

    if s1 == t1:
        second = connected_avoiding(s2, t2, {s1})
        return ([s1], second) if second is not None else None
    if s2 == t2:
        first = connected_avoiding(s1, t1, {s2})
        return (first, [s2]) if first is not None else None

    sink_side = {s2, t2}

    def search(path, on_path):
        last = path[-1]
        if last == t1:
            second = connected_avoiding(s2, t2, on_path)
            if second is not None:
                return list(path), second
            return None
        for w in g.sorted_neighbors(last):
            if w in on_path or w in sink_side:
                continue
            path.append(w)
            on_path.add(w)
            if connected_avoiding(s2, t2, on_path) is not None and (
                w == t1 or connected_avoiding(w, t1, on_path - {w}) is not None
            ):
                found = search(path, on_path)
                if found is not None:
                    return found
            path.pop()
            on_path.remove(w)
        return None

    return search([s1], {s1})


def ref_fundamental_cycle(g, tree, e):
    e = edge_key(*e)
    if e in tree:
        raise GraphInputError(f"edge {e} already in the spanning tree")
    if not (0 <= e[0] and e[1] < g.n and g.has_edge(*e)):
        raise GraphInputError(f"edge {e} not in the graph")
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    a, b = e
    parent = {a: None}
    queue = [a]
    head = 0
    while head < len(queue) and b not in parent:
        x = queue[head]
        head += 1
        for y in sorted(adj.get(x, ())):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if b not in parent:
        raise GraphInputError("tree does not span the endpoints of e")
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def ref_edge_components(edges):
    comps = []
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append((comp, {e for e in edges if e[0] in comp}))
    return comps


def ref_assemble_cycle(ring):
    adj = {}
    for a, b in ring:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not all(len(v) == 2 for v in adj.values()):
        raise InternalInvariantError("ring edges must form a cycle")
    start = min(adj)
    order = [start, min(adj[start])]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != len(adj):
        raise InternalInvariantError("ring must be a single cycle")
    return order


def ref_arcs_between(cycle_order, odds):
    length = len(cycle_order)
    odd_set = set(odds)
    boundary = [
        i
        for i in range(length)
        if edge_key(cycle_order[i], cycle_order[(i + 1) % length]) in odd_set
    ]
    if len(boundary) != len(odd_set):
        raise InternalInvariantError("every odd edge lies on the cycle once")
    arcs = []
    for k in range(len(boundary)):
        start = (boundary[k] + 1) % length
        end = boundary[(k + 1) % len(boundary)]
        arc = []
        i = start
        while True:
            arc.append(cycle_order[i])
            if i == end:
                break
            i = (i + 1) % length
        arcs.append(arc)
    return sorted(arcs, key=min)


def ref_ring_arcs(ring, odds):
    order = ref_assemble_cycle(ring)
    return order, ref_arcs_between(order, odds)


def ref_first_side(g, u, v):
    start = min({0, 1, 2} - {u, v})
    seen = {start, u, v}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen - {u, v}


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except (GraphInputError, SizeGuardError, InternalInvariantError) as exc:
        return (type(exc).__name__, str(exc))


class TestBfsRoutedSearches:
    def test_linkage_matches_reference(self):
        rnd = random.Random(16)
        kinds = {"found": 0, "none": 0, "trivial": 0}
        for _ in range(2500):
            n = rnd.randint(4, 14)
            if rnd.random() < 0.5:
                g = random_subcubic_graph(rnd, n)
            else:
                p = rnd.uniform(0.15, 0.6)
                g = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
            s1, t1, s2, t2 = rnd.sample(range(n), 4)
            if rnd.random() < 0.15:
                t1 = s1
            elif rnd.random() < 0.15:
                t2 = s2
            pairs = ((s1, t1), (s2, t2))
            got = find_two_disjoint_paths(g, LinkageQuery(pairs))
            assert got == ref_find_two_disjoint_paths(g, pairs), (g.edges, pairs)
            kinds["trivial" if s1 == t1 or s2 == t2 else "none" if got is None else "found"] += 1
        assert min(kinds.values()) > 150, kinds

    def test_linkage_errors_match_reference(self):
        g = cycle_graph(65)
        pairs = ((0, 1), (2, 3))
        got = result_or_error(find_two_disjoint_paths, g, LinkageQuery(pairs))
        assert got == result_or_error(ref_find_two_disjoint_paths, g, pairs)
        assert got[0] == "SizeGuardError"

    def test_fundamental_cycles_match_reference(self):
        rnd = random.Random(17)
        errors = set()
        cycles = 0
        for g in corpus(17, 1500):
            if g.n < 2 or not g.is_connected():
                continue
            tree = bfs_spanning_tree(g, rnd.randrange(g.n))
            if rnd.random() < 0.3:
                # any edge set, also a forest that misses e's endpoints or
                # holds a cycle: both searches are BFS over sorted neighbours
                tree = {e for e in g.edges if rnd.random() < 0.5}
            as_graph = Graph(g.n, tree)
            for e in list(g.edges) + [(0, g.n - 1), (g.n - 1, g.n)]:
                got = result_or_error(spanning_tree_fundamental_cycle, g, as_graph, e)
                assert got == result_or_error(ref_fundamental_cycle, g, tree, e), (g.edges, tree, e)
                if isinstance(got, tuple):
                    errors.add(got[1].split()[-1])
                else:
                    cycles += 1
        assert errors == {"tree", "graph", "e"} and cycles > 2000, errors

    def test_parent_walk_cycles_match_the_tree_references(self):
        # triads' BFS over label-changing edges is the BFS tree of the even
        # graph, its reached set is the even graph's first component, and
        # walking up parents gives every fundamental cycle's edges
        rnd = random.Random(23)
        kinds = {"spanning": 0, "disconnected": 0}
        cycles = 0
        for g in corpus(23, 1500):
            if g.n < 2 or not g.is_connected():
                continue
            if rnd.random() < 0.4:
                labels = theta.spanning_tree_view(g).labels
            else:
                labels = [rnd.randint(0, 1) for _ in range(g.n)]
            gp = theta.make_view(g, labels).even_graph()
            parent, depth, reached = theta._even_bfs_tree(g, labels)
            comps = gp.connected_components()
            if len(comps) > 1:
                assert sorted(reached) == comps[0], (g.edges, labels)
                kinds["disconnected"] += 1
                continue
            tree = bfs_spanning_tree(gp)
            assert {edge_key(v, parent[v]) for v in reached[1:]} == tree
            as_graph = Graph(g.n, tree)
            for e in g.edges:
                if e in tree:
                    continue
                path = spanning_tree_fundamental_cycle(g, as_graph, e)
                want = set(path_edges(path)) | {e}
                assert theta._tree_cycle_edges(parent, depth, e) == want, (g.edges, labels, e)
                cycles += 1
            kinds["spanning"] += 1
        assert min(kinds.values()) > 150 and cycles > 3000, (kinds, cycles)

    def test_edge_components_match_reference(self):
        rnd = random.Random(19)
        many = 0
        for _ in range(1500):
            n = rnd.randint(1, 30)
            p = rnd.uniform(0.02, 0.3)
            edges = {e for e in combinations(range(n), 2) if rnd.random() < p}
            got = _edge_components(n, edges)
            assert got == ref_edge_components(edges), (n, edges)
            many += len(got) > 1
        assert many > 300


def error_type_or_result(fn, *args):
    got = result_or_error(fn, *args)
    return got[0] if isinstance(got, tuple) else got


def random_ring(rnd, n, length):
    """The edges of a cycle through `length` random vertices below n."""
    order = rnd.sample(range(n), length)
    return {edge_key(a, b) for a, b in zip(order, order[1:] + order[:1])}


def random_odds(rnd, ring):
    """Three distinct edges of the ring, as the sorted triple `triads` passes."""
    return tuple(sorted(rnd.sample(sorted(ring), 3)))


class TestRingAndSideSearches:
    def test_ring_order_matches_reference(self):
        rnd = random.Random(20)
        adjacent = 0
        for _ in range(3000):
            n = rnd.randint(3, 60)
            ring = random_ring(rnd, n, rnd.randint(3, n))
            odds = random_odds(rnd, ring)
            order, arcs = _ring_arcs(ring, odds)
            assert (order, arcs) == ref_ring_arcs(ring, odds), (ring, odds)
            assert sorted(v for arc in arcs for v in arc) == sorted(order)
            adjacent += min(map(len, arcs)) == 1
        # odd edges sharing a vertex leave a one-vertex arc
        assert adjacent > 300, adjacent

    def test_odd_edges_off_the_ring_fail_in_both(self):
        rnd = random.Random(24)
        for _ in range(600):
            n = rnd.randint(4, 40)
            ring = random_ring(rnd, n, rnd.randint(3, n - 1))
            off = edge_key(*rnd.sample(range(n), 2))
            if off in ring:
                continue
            odds = tuple(sorted(rnd.sample(sorted(ring), 2) + [off]))
            got = error_type_or_result(_ring_arcs, ring, odds)
            assert got == error_type_or_result(ref_ring_arcs, ring, odds), (ring, odds)
            assert got == "InternalInvariantError", (ring, odds)

    def test_broken_rings_fail_in_both(self):
        # two disjoint cycles, a chord, a path and a pendant edge: the
        # messages differ, the invariant error does not
        rnd = random.Random(21)
        for _ in range(600):
            n = rnd.randint(8, 40)
            order = rnd.sample(range(n), rnd.randint(6, n))
            cut = rnd.randint(3, len(order) - 3)
            rings = [
                {edge_key(a, b) for part in (order[:cut], order[cut:])
                 for a, b in zip(part, part[1:] + part[:1])},
                {edge_key(a, b) for a, b in zip(order, order[1:] + order[:1])}
                | {edge_key(order[0], order[cut])},
                {edge_key(a, b) for a, b in zip(order, order[1:])},
                {edge_key(a, b) for a, b in zip(order[1:], order[2:] + order[1:2])}
                | {edge_key(order[0], order[rnd.randrange(1, len(order))])},
            ]
            for ring in rings:
                odds = random_odds(rnd, ring)
                got = error_type_or_result(_ring_arcs, ring, odds)
                assert got == error_type_or_result(ref_ring_arcs, ring, odds), ring
                assert got == "InternalInvariantError", ring

    def test_separation_side_matches_reference(self):
        rnd = random.Random(22)
        pairs = split = 0
        for _ in range(600):
            n = rnd.randint(4, 16)
            if rnd.random() < 0.7:
                g = relabelled(rnd, random_subcubic_graph(rnd, n))
            else:
                p = rnd.uniform(0.15, 0.5)
                g = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
            for u, v in combinations(range(n), 2):
                want = ref_first_side(g, u, v)
                assert _first_side(g, u, v) == want, (g.edges, u, v)
                pairs += 1
                split += len(want) < n - 2
        # half the pairs leave G - {u, v} disconnected, so a side taken
        # from any other component than the first one fails here
        assert pairs > 25000 and split > 12000, (pairs, split)

    def test_separation_side_builds_no_graph(self, monkeypatch):
        g = cycle_graph(9)
        builds = []
        fill = Graph._fill
        monkeypatch.setattr(
            Graph, "_fill", lambda h, n, edges: builds.append(n) or fill(h, n, edges)
        )
        assert _first_side(g, 2, 6) == {0, 1, 7, 8}
        assert _first_side(g, 0, 1) == set(range(2, 9))
        assert builds == []


# -- reference: the six-branch separation case split ----------------------


def ref_reduced_sides(side1, side2, u, v, parities):
    g1, map1 = side1
    g2, map2 = side2
    o1, e1, o2, e2 = parities
    check(o1 or e1, "a connected side admits an induced separator path")
    check(o2 or e2, "a connected side admits an induced separator path")

    if o1 and e1 and o2 and e2:
        return "mixed-parities-both-sides", None

    def identified(gs, mp):
        merged, mp2 = identify_vertices(gs, mp[u], mp[v])
        combined = {old: mp2[new] for old, new in mp.items()}
        return merged, combined

    def with_edge(gs, mp):
        return gs.with_edge(mp[u], mp[v]), dict(mp)

    if o1 and not o2:
        return "separation-odd-one-side", [identified(g1, map1), with_edge(g2, map2)]
    if o2 and not o1:
        return "separation-odd-one-side", [identified(g2, map2), with_edge(g1, map1)]
    if not o1 and not o2:
        return "separation-odd-neither-side", [(g1, dict(map1)), (g2, dict(map2))]
    if e1 and not e2:
        return "separation-even-one-side", [with_edge(g1, map1), identified(g2, map2)]
    if e2 and not e1:
        return "separation-even-one-side", [with_edge(g2, map2), identified(g1, map1)]
    check(not e1 and not e2, "remaining case: even paths on neither side")
    return "separation-even-neither-side", [(g1, dict(map1)), (g2, dict(map2))]


def reduced_or_error(reduce):
    """The case and each child's (n, edges, map), or the error raised."""
    try:
        case, children = reduce()
    except (GraphInputError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)
    if children is None:
        return case, None
    return case, [(h.n, h.edges, mp) for h, mp in children]


class TestReducedSidesRule:
    def test_symmetric_rule_matches_six_branch_reference(self):
        # the unit fixtures (one with an adjacent pair, which both reject
        # where an edge uv is added) and random separating pairs of blow-ups
        cases = [
            (Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]), (0, 1, {2})),
            (cycle_graph(6), (0, 3, {1, 2})),
            (cycle_graph(5), (0, 2, {1})),
        ]
        rnd = random.Random(1919)
        for _ in range(250):
            g = cycle_blowup([rnd.choice((1, 1, 2)) for _ in range(rnd.randint(4, 10))])
            sep = find_two_separation(g)
            if sep is not None:
                cases.append((g, sep))
            u, v = sorted(rnd.sample(range(g.n), 2))
            first = _first_side(g, u, v)
            if len(first) < g.n - 2:
                cases.append((g, (u, v, first)))
        outcomes = set()
        for g, (u, v, first) in cases:
            sides = [g.induced(first | {u, v}), g.induced(set(range(g.n)) - first)]
            for bits in range(16):
                parities = tuple(bool(bits >> i & 1) for i in range(4))
                got = reduced_or_error(lambda: _reduced_sides(sides, u, v, parities))
                want = reduced_or_error(lambda: ref_reduced_sides(*sides, u, v, parities))
                assert got == want, (g.edges, u, v, parities)
                outcomes.add(got[0])
        assert len(cases) > 250, len(cases)
        assert outcomes == {
            "GraphInputError",
            "InternalInvariantError",
            "mixed-parities-both-sides",
            "separation-even-neither-side",
            "separation-even-one-side",
            "separation-odd-neither-side",
            "separation-odd-one-side",
        }


# -- reference: the exhaustive two-odd-edge split --------------------------


def ref_solve_side_linkage(h, side, x_t, y_t, g1, g2):
    sub, old_to_new = h.induced(side)
    if not sub.is_connected():
        raise InternalInvariantError("cut side must be connected")

    def attempt(t_for_x, t_for_y):
        pair1 = (old_to_new[x_t], old_to_new[t_for_x])
        pair2 = (old_to_new[y_t], old_to_new[t_for_y])
        if set(pair1) & set(pair2):
            return None
        found = find_two_disjoint_paths(sub, LinkageQuery((pair1, pair2)))
        if found is None:
            return None
        px, py = found
        return (t_for_x, (len(px) - 1) % 2), (t_for_y, (len(py) - 1) % 2)

    return attempt(g1, g2) or attempt(g2, g1)


def ref_split_along_cut(h, view, f, o1, o2, e1, e2):
    """The exhaustive steps after the probes: None when the 2-linkage
    finds two disjoint odd cycles, else the children of the first
    realisable pairing of side one and the forced crosswise far side."""
    if has_two_disjoint_odd_cycles(h, view):
        return None
    c1, c2 = f.side_a, f.side_b

    def endpoint_in(e, side):
        (hit,) = [w for w in e if w in side]
        return hit

    x1, x2 = endpoint_in(o1, c1), endpoint_in(o1, c2)
    y1, y2 = endpoint_in(o2, c1), endpoint_in(o2, c2)
    a1, b1 = endpoint_in(e1, c1), endpoint_in(e2, c1)
    side1 = ref_solve_side_linkage(h, c1, x1, y1, a1, b1)
    if side1 is None:
        raise InternalInvariantError("first side admits a disjoint pairing")
    (u1, p1_parity), (v1, q1_parity) = side1
    edge_p = e1 if u1 == a1 else e2
    edge_q = e2 if edge_p == e1 else e1
    u2, v2 = endpoint_in(edge_q, c2), endpoint_in(edge_p, c2)
    sub2, map2 = h.induced(c2)
    found2 = find_two_disjoint_paths(
        sub2, LinkageQuery(((map2[x2], map2[u2]), (map2[y2], map2[v2])))
    )
    if found2 is None:
        raise InternalInvariantError("far side admits the crosswise pairing")
    p2_parity, q2_parity = ((len(p) - 1) % 2 for p in found2)
    return [
        _one_side_graph(h, view, c1, x1, y1, (x2, p2_parity, v1), (y2, q2_parity, u1)),
        _one_side_graph(h, view, c2, x2, y2, (x1, p1_parity, v2), (y1, q1_parity, u2)),
    ]


def realisable_partners(rest, x, y, a, b):
    """The ends among a, b that x reaches in some pair of disjoint x- and
    y-paths to a and b, by the exhaustive 2-linkage."""
    return {
        t
        for t, s in ((a, b), (b, a))
        if not {x, t} & {y, s}
        and find_two_disjoint_paths(rest, LinkageQuery(((x, t), (y, s)))) is not None
    }


class TestTwoOddSplit:
    def test_flow_split_matches_exhaustive_reference(self, monkeypatch):
        split_side, side_partner = theta._split_along_cut, theta._side_partner
        splits = []  # one flag per split: does a side share a terminal?

        def counted_split(*args):
            splits.append(False)
            return split_side(*args)

        def checked_partner(rest, x, y, a, b):
            u = side_partner(rest, x, y, a, b)
            assert realisable_partners(rest, x, y, a, b) == {u}, (rest.edges, x, y, a, b)
            splits[-1] |= bool({x, y} & {a, b})
            return u

        rnd = random.Random(9090)
        instances = list(two_odd_edge_instances(rnd, 4000))
        instances += glued_two_odd_instances(rnd, 4000)
        for h, view in instances:
            with monkeypatch.context() as m:
                m.setattr(theta, "_split_along_cut", ref_split_along_cut)
                want = result_or_error(decide_few_odd_edges, h, view)
            with monkeypatch.context() as m:
                m.setattr(theta, "_split_along_cut", counted_split)
                m.setattr(theta, "_side_partner", checked_partner)
                got = result_or_error(decide_few_odd_edges, h, view)
            assert got == want, (h.edges, view.labels)
        assert len(splits) >= 150 and sum(splits) >= 100, (len(splits), sum(splits))
        assert len(splits) - sum(splits) >= 20, splits


# -- reference: the arc-network flow kernel --------------------------------


class RefNetwork:
    """Directed residual network with integer capacities.

    Arcs are stored in pairs: forward arcs get even ids, their residual
    twins odd ids.
    """

    def __init__(self, nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        i = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(i)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(i + 1)
        return i

    def flow_on(self, arc: int) -> int:
        return self.cap[arc ^ 1]

    def max_flow(self, s: int, t: int, limit: int) -> int:
        flow = 0
        while flow < limit:
            parent_arc = [-1] * len(self.adj)
            parent_arc[s] = -2
            queue = [s]
            head = 0
            while head < len(queue) and parent_arc[t] == -1:
                x = queue[head]
                head += 1
                for i in self.adj[x]:
                    y = self.to[i]
                    if self.cap[i] > 0 and parent_arc[y] == -1:
                        parent_arc[y] = i
                        queue.append(y)
            if parent_arc[t] == -1:
                break
            x = t
            while x != s:
                i = parent_arc[x]
                self.cap[i] -= 1
                self.cap[i ^ 1] += 1
                x = self.to[i ^ 1]
            flow += 1
        return flow

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for i in self.adj[x]:
                y = self.to[i]
                if self.cap[i] > 0 and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen


def ref_walk_paths(out, start_credits):
    paths = []
    for start, credit in start_credits:
        for _ in range(credit):
            walk = [start]
            x = start
            while out.get(x):
                x = out[x].pop(0)
                walk.append(x)
            path: list[int] = []
            pos: dict[int, int] = {}
            for v in walk:
                if v in pos:
                    for w in path[pos[v] + 1:]:
                        del pos[w]
                    del path[pos[v] + 1:]
                else:
                    pos[v] = len(path)
                    path.append(v)
            paths.append(path)
    return paths


def ref_edge_network(g, sources, sinks, cap_limit):
    net = RefNetwork(g.n + 2)
    s, t = g.n, g.n + 1
    arc_of = {}
    for u, v in g.edges:
        arc_of[(u, v)] = net.add_arc(u, v, 1)
        arc_of[(v, u)] = net.add_arc(v, u, 1)
    source_arcs = {x: net.add_arc(s, x, cap_limit) for x in sorted(sources)}
    for x in sorted(sinks):
        net.add_arc(x, t, cap_limit)
    return net, s, t, arc_of, source_arcs


def ref_terminals(sources, sinks):
    src, snk = set(sources), set(sinks)
    if not src or not snk or src & snk:
        raise GraphInputError("sources and sinks must be disjoint and nonempty")
    return src, snk


def ref_min_edge_cut_between(g, sources, sinks):
    src, snk = ref_terminals(sources, sinks)
    limit = g.m + 1
    net, s, t, _, _ = ref_edge_network(g, src, snk, limit)
    net.max_flow(s, t, limit)
    reach = net.residual_reachable(s)
    cut = flows.exact_cut(g, (x for x in range(g.n) if x in reach))
    assert src <= cut.side_a and snk <= cut.side_b
    return cut


def ref_edge_disjoint_paths(g, sources, sinks, k):
    src, snk = ref_terminals(sources, sinks)
    net, s, t, arc_of, source_arcs = ref_edge_network(g, src, snk, g.m + 1)
    if net.max_flow(s, t, k) < k:
        return None
    out = {}
    for u, v in g.edges:
        net_flow = net.flow_on(arc_of[(u, v)]) - net.flow_on(arc_of[(v, u)])
        if net_flow > 0:
            out.setdefault(u, []).append(v)
        elif net_flow < 0:
            out.setdefault(v, []).append(u)
    for u in out:
        out[u].sort()
    credits = [(x, net.flow_on(source_arcs[x])) for x in sorted(src)]
    paths = ref_walk_paths(out, credits)
    if not (len(paths) == k and all(p[-1] in snk for p in paths)):
        raise InternalInvariantError("flow decomposition")
    return paths


def ref_split_network(g, sources, sinks, source_cap, sink_cap):
    net = RefNetwork(2 * g.n + 2)
    s, t = 2 * g.n, 2 * g.n + 1
    internal = {}
    for v in range(g.n):
        cap = source_cap if v in sources else sink_cap if v in sinks else 1
        internal[v] = net.add_arc(2 * v, 2 * v + 1, cap)
    graph_arcs = {}
    for u, v in g.edges:
        if u not in sinks and v not in sources:
            graph_arcs[(u, v)] = net.add_arc(2 * u + 1, 2 * v, 1)
        if v not in sinks and u not in sources:
            graph_arcs[(v, u)] = net.add_arc(2 * v + 1, 2 * u, 1)
    source_arcs = {x: net.add_arc(s, 2 * x, source_cap) for x in sorted(sources)}
    for x in sorted(sinks):
        net.add_arc(2 * x + 1, t, sink_cap)
    return net, s, t, internal, graph_arcs, source_arcs


def ref_split_paths(net, internal, graph_arcs, source_arcs, sources, k):
    out = {}
    for v, arc in internal.items():
        for _ in range(net.flow_on(arc)):
            out.setdefault(2 * v, []).append(2 * v + 1)
    for (u, v), arc in graph_arcs.items():
        reverse = graph_arcs.get((v, u))
        net_flow = net.flow_on(arc) - (net.flow_on(reverse) if reverse is not None else 0)
        if net_flow > 0:
            out.setdefault(2 * u + 1, []).append(2 * v)
    for x in out:
        out[x].sort()
    credits = [(2 * x, net.flow_on(source_arcs[x])) for x in sorted(sources)]
    raw = ref_walk_paths(out, credits)
    if len(raw) != k:
        raise InternalInvariantError("split-flow decomposition")
    collapsed = []
    for p in raw:
        q = [x // 2 for x in p]
        dedup = [q[0]]
        for v in q[1:]:
            if v != dedup[-1]:
                dedup.append(v)
        collapsed.append(dedup)
    return collapsed


def ref_vertex_disjoint_paths(g, sources, sinks, k):
    src, snk = ref_terminals(sources, sinks)
    src_cap = k if len(src) == 1 else 1
    snk_cap = k if len(snk) == 1 else 1
    net, s, t, internal, graph_arcs, source_arcs = ref_split_network(
        g, src, snk, src_cap, snk_cap
    )
    if net.max_flow(s, t, k) < k:
        return None
    return ref_split_paths(net, internal, graph_arcs, source_arcs, src, k)


def ref_fan_paths(g, centre, targets, k):
    tgt = set(targets)
    if centre in tgt:
        raise GraphInputError("centre cannot be one of the targets")
    net, s, t, internal, graph_arcs, source_arcs = ref_split_network(g, {centre}, tgt, k, 1)
    if net.max_flow(s, t, k) < k:
        return None
    return ref_split_paths(net, internal, graph_arcs, source_arcs, {centre}, k)


def flow_instances(rnd, count):
    """Random graphs of 2-12 vertices (subcubic, sparse or dense, so many
    are disconnected) with disjoint source and sink sets of one to three
    vertices and k from 0 to two above the largest useful flow."""
    for i in range(count):
        n = rnd.randint(2, 12)
        if i % 3 == 0:
            g = random_subcubic_graph(rnd, n)
        else:
            p = rnd.choice((0.15, 0.3, 0.5, 0.8))
            g = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
        order = list(range(n))
        rnd.shuffle(order)
        a = rnd.randint(1, min(3, n - 1))
        b = rnd.randint(1, min(3, n - a))
        yield g, set(order[:a]), set(order[a : a + b]), rnd.randint(0, g.max_degree() + 2)


class TestFlowKernel:
    def test_flows_match_arc_network_reference(self):
        rnd = random.Random(4242)
        seen = {"cut": set(), "paths": 0, "none": 0, "disconnected": 0, "sets": 0}
        for g, src, snk, k in flow_instances(rnd, 3200):
            seen["disconnected"] += not g.is_connected()
            seen["sets"] += len(src) > 1 and len(snk) > 1
            centre = min(src)
            calls = [
                (flows.min_edge_cut_between, ref_min_edge_cut_between, (g, src, snk)),
                (flows.edge_disjoint_paths, ref_edge_disjoint_paths, (g, src, snk, k)),
                (flows.vertex_disjoint_paths, ref_vertex_disjoint_paths, (g, src, snk, k)),
                (flows.fan_paths, ref_fan_paths, (g, centre, snk | src - {centre}, k)),
            ]
            for fn, ref, args in calls:
                got, want = result_or_error(fn, *args), result_or_error(ref, *args)
                assert got == want, (fn.__name__, g.n, g.edges, src, snk, k)
                if fn is flows.min_edge_cut_between:
                    seen["cut"].add(len(got.edges))
                else:
                    seen["paths"] += bool(got)
                    seen["none"] += got is None
        assert seen["disconnected"] >= 500 and seen["sets"] >= 500, seen
        assert {0, 1, 2, 3, 4, 5} <= seen["cut"], seen
        assert seen["paths"] >= 2000 and seen["none"] >= 2000, seen

    def test_terminal_errors_match_reference(self):
        g = cycle_graph(5)
        for src, snk in (((), {1}), ({0}, ()), ({0, 1}, {1, 2})):
            for fn, ref in (
                (flows.min_edge_cut_between, ref_min_edge_cut_between),
                (flows.edge_disjoint_paths, ref_edge_disjoint_paths),
                (flows.vertex_disjoint_paths, ref_vertex_disjoint_paths),
            ):
                args = (g, src, snk) + ((2,) if fn is not flows.min_edge_cut_between else ())
                assert result_or_error(fn, *args) == result_or_error(ref, *args)
        assert result_or_error(flows.fan_paths, g, 0, {0, 1}, 1) == result_or_error(
            ref_fan_paths, g, 0, {0, 1}, 1
        )

    def test_small_cut_blocks_skip_the_two_odd_flows(self, monkeypatch):
        # a two-odd-edge block with a small flip cut is flipped before any
        # flow: its only min cuts are those of the one-odd-edge test on
        # the flipped view, and no linking paths are sought
        def refuse(*args):
            raise AssertionError("two-odd linking paths sought")

        cuts = []

        def counted_cut(g, sources, sinks):
            cuts.append((g.edges, sorted(sources), sorted(sinks)))
            return flows.min_edge_cut_between(g, sources, sinks)

        monkeypatch.setattr(theta, "vertex_disjoint_paths", refuse)
        monkeypatch.setattr(theta, "min_edge_cut_between", counted_cut)
        small = 0
        for h, view in two_odd_edge_instances(random.Random(6161), 1500):
            cand = theta.small_flip_cut(h, view)
            if cand is None:
                continue
            small += 1
            cuts.clear()
            one_odd = theta._one_odd_block(h, theta.flip(view, cand))
            expected, cuts[:] = list(cuts), []
            verdict = decide_few_odd_edges(h, view)
            assert cuts == expected, (h.edges, view.labels)
            assert verdict.trace[0] == ("flip-on-small-cut", {"cut": len(cand.edges)})
            assert verdict.trace[1 : 1 + len(one_odd.trace)] == one_odd.trace
        assert small >= 500, small
