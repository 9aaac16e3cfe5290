"""Exponential ground-truth checkers, used in tests and for desk-scale
certificates only; the recognition pipeline never consults them.

t-perfection is decided by closing the input under vertex deletions and
t-contractions and looking for the four forbidden graphs, deduplicating
the closure by `core.isomorphism.canonical_form` (the engine the
recognizer uses); skewed thetas and skewed prisms are found by exhaustive
subgraph enumeration.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .core.graph import Graph, edge_key
from .core.isomorphism import canonical_form
from .core.named import complete_graph, squared_cycle, wheel_5
from .errors import NotClawFreeError, SizeGuardError
from .recognizer import find_claw

T_PERFECT_SIZE_GUARD = 12
THETA_SIZE_GUARD = 14
PRISM_SIZE_GUARD = 12


def t_contract(g: Graph, v: int) -> Graph | None:
    """Contract all edges at v if N(v) is a stable set, else None.

    The merged vertex inherits every neighbor of the closed neighborhood;
    the result is simplified (no loops, no parallel edges).
    """
    nbrs = sorted(g.neighbors(v))
    for a, b in combinations(nbrs, 2):
        if g.has_edge(a, b):
            return None
    merged = set(nbrs) | {v}
    keep = [w for w in range(g.n) if w not in merged]
    relabel = {w: i + 1 for i, w in enumerate(keep)}
    for w in merged:
        relabel[w] = 0
    es = set()
    for a, b in g.edges:
        na, nb = relabel[a], relabel[b]
        if na != nb:
            es.add(edge_key(na, nb))
    return Graph(len(keep) + 1, sorted(es))


@cache
def _forbidden_graphs() -> tuple[tuple[Graph, tuple], ...]:
    """The four forbidden t-minors with their canonical forms."""
    gs = (complete_graph(4), wheel_5(), squared_cycle(7), squared_cycle(10))
    return tuple((h, canonical_form(h)) for h in gs)


def _reaches_target(g: Graph, targets: tuple[tuple[Graph, tuple], ...]) -> bool:
    """Breadth-first closure under vertex deletions and t-contractions,
    deduplicated by canonical form; True iff a target graph is reached.

    Frontier graphs with fewer vertices or edges than every target are
    dropped: neither operation increases either count.
    """
    min_n = min(h.n for h, _ in targets)
    min_m = min(h.m for h, _ in targets)

    def viable(h: Graph) -> bool:
        return h.n >= min_n and h.m >= min_m

    def is_target(h: Graph, canon: tuple) -> bool:
        return any(
            h.n == t.n and h.m == t.m and canon == tc for t, tc in targets
        )

    if not viable(g):
        return False
    start = canonical_form(g)
    if is_target(g, start):
        return True
    seen: set[tuple] = {start}
    exact_memo: dict[Graph, tuple] = {g: start}
    frontier = [g]
    while frontier:
        nxt: list[Graph] = []
        for h in frontier:
            children: list[Graph] = []
            for v in range(h.n):
                child, _ = h.without_vertex(v)
                children.append(child)
            for v in range(h.n):
                if h.degree(v) == 0:
                    continue
                child = t_contract(h, v)
                if child is not None:
                    children.append(child)
            for child in children:
                if not viable(child):
                    continue
                canon = exact_memo.get(child)
                if canon is None:
                    canon = canonical_form(child)
                    exact_memo[child] = canon
                if canon in seen:
                    continue
                if is_target(child, canon):
                    return True
                seen.add(canon)
                nxt.append(child)
        frontier = nxt
    return False


def is_t_perfect_bruteforce(g: Graph, size_guard: int = T_PERFECT_SIZE_GUARD) -> bool:
    """A claw-free graph is t-perfect iff its t-minor closure avoids all
    four forbidden graphs; decided by exhaustive closure search."""
    if g.n > size_guard:
        raise SizeGuardError(f"t-minor closure guard: {g.n} > {size_guard}")
    w = find_claw(g)
    if w is not None:
        raise NotClawFreeError(w.centre, w.leaves)
    return not _reaches_target(g, _forbidden_graphs())


def has_k4_t_minor(g: Graph) -> bool:
    """Is K4 reachable in the t-minor closure?  Test-side cross-check
    companion to the skewed-prism enumeration."""
    if g.n > T_PERFECT_SIZE_GUARD:
        raise SizeGuardError(f"t-minor closure guard: {g.n} > {T_PERFECT_SIZE_GUARD}")
    return _reaches_target(g, _forbidden_graphs()[:1])


def has_skewed_theta_bruteforce(g: Graph) -> bool:
    """Enumerate branch-vertex pairs and triples of pairwise edge-disjoint
    connecting paths; True iff some triple has lengths odd, odd, even.

    Works on any graph (paths may share interior vertices when the graph
    is not subcubic, which edge-disjointness permits).
    """
    if g.n > THETA_SIZE_GUARD:
        raise SizeGuardError(f"skewed-theta enumeration guard: {g.n} > {THETA_SIZE_GUARD}")
    if g.is_bipartite():
        return False  # a skewed theta always contains an odd cycle
    eindex = {e: i for i, e in enumerate(g.edges)}

    for u in range(g.n):
        if g.degree(u) < 3:
            continue
        for v in range(u + 1, g.n):
            if g.degree(v) < 3:
                continue
            odd_masks: set[int] = set()
            even_masks: set[int] = set()

            stack = [(u, 0, 0, 1 << u)]
            # iterative DFS over simple u-v paths: (vertex, edge mask, length, visited)
            while stack:
                x, mask, length, visited = stack.pop()
                for y in g.sorted_neighbors(x):
                    if visited >> y & 1:
                        continue
                    em = mask | (1 << eindex[edge_key(x, y)])
                    if y == v:
                        (odd_masks if (length + 1) % 2 else even_masks).add(em)
                    else:
                        stack.append((y, em, length + 1, visited | (1 << y)))

            if not even_masks or len(odd_masks) < 2:
                continue
            odds = sorted(odd_masks)
            evens = sorted(even_masks)
            for i, m1 in enumerate(odds):
                for m2 in odds[i + 1:]:
                    if m1 & m2:
                        continue
                    both = m1 | m2
                    for m3 in evens:
                        if m3 & both == 0:
                            return True
    return False


def _simple_paths_with_parity(
    g: Graph, a: int, b: int, parity: int, banned: frozenset[int]
):
    """Yield vertex lists of simple a-b paths of the given length parity
    whose interior avoids `banned`; the endpoints may lie in `banned`."""
    if a == b:
        if parity == 0:
            yield [a]
        return

    path = [a]
    on_path = {a}

    def rec(x: int):
        for y in g.sorted_neighbors(x):
            if y == b:
                if len(path) % 2 == parity:  # final length = len(path) edges
                    yield path + [b]
                continue
            if y in on_path or y in banned:
                continue
            path.append(y)
            on_path.add(y)
            yield from rec(y)
            path.pop()
            on_path.remove(y)

    yield from rec(a)


def has_skewed_prism_bruteforce(g: Graph) -> bool:
    """Exhaustive search for two triangles joined by three vertex-disjoint
    induced paths, two of even length (possibly zero) and one odd, forming
    an induced subgraph with no extra edges.

    Zero-length even paths mean shared triangle vertices, so K4 itself
    counts (two triangles sharing an edge plus one odd edge).
    """
    if g.n > PRISM_SIZE_GUARD:
        raise SizeGuardError(f"skewed-prism enumeration guard: {g.n} > {PRISM_SIZE_GUARD}")
    triangles = [
        trio
        for trio in combinations(range(g.n), 3)
        if g.is_clique(trio)
    ]

    from itertools import permutations

    for t1 in triangles:
        for t2 in triangles:
            if t1 == t2:
                continue
            shared = set(t1) & set(t2)
            for image in permutations(t2):
                pairs = list(zip(t1, image))
                if any((a in shared or b in shared) and a != b for a, b in pairs):
                    continue
                for odd_at in range(3):
                    if pairs[odd_at][0] == pairs[odd_at][1]:
                        continue  # shared vertices are zero-length even paths
                    if _prism_with_assignment(g, t1, t2, pairs, odd_at):
                        return True
    return False


def _prism_with_assignment(g, t1, t2, pairs, odd_at) -> bool:
    tri_vertices = set(t1) | set(t2)
    tri_edges = {edge_key(a, b) for a, b in combinations(t1, 2)}
    tri_edges |= {edge_key(a, b) for a, b in combinations(t2, 2)}
    order = [odd_at] + [i for i in range(3) if i != odd_at]

    def place(idx: int, used: set[int], path_edges: set, paths_interiors: set[int]) -> bool:
        if idx == 3:
            vertices = tri_vertices | paths_interiors
            for a, b in combinations(sorted(vertices), 2):
                e = edge_key(a, b)
                if g.has_edge(a, b) != (e in tri_edges or e in path_edges):
                    return False
            return True
        i = order[idx]
        a, b = pairs[i]
        parity = 1 if i == odd_at else 0
        if a == b:
            return place(idx + 1, used, path_edges, paths_interiors)
        banned = frozenset((tri_vertices | paths_interiors | used) - {a, b})
        for path in _simple_paths_with_parity(g, a, b, parity, banned):
            interior = set(path[1:-1])
            new_edges = {edge_key(x, y) for x, y in zip(path, path[1:])}
            if place(
                idx + 1,
                used | set(path),
                path_edges | new_edges,
                paths_interiors | interior,
            ):
                return True
        return False

    return place(0, set(), set(), set())
