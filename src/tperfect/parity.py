"""Parity-flavored path oracles.

The recognizer asks which parities the induced u-v paths of a claw-free
graph have: one exhaustive search answers both, correct on every graph
and guarded by the cap `max_exhaustive_n` on the graph's vertex count.

The 2-linkage search (do two terminal pairs admit disjoint linking
paths?) and the disjoint-odd-cycle test built on it are exhaustive
references for the tests, capped by the constant `MAX_LINKAGE_N`; they
are not decision steps.  The two-odd-edge split in `theta` pairs its
cut edges by one 2-path flow per side instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.graph import Graph, bfs_path
from .errors import GraphInputError, SizeGuardError


@dataclass(frozen=True)
class LinkageQuery:
    pairs: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        (s1, t1), (s2, t2) = self.pairs
        if {s1, t1} & {s2, t2}:
            raise GraphInputError("linkage terminal pairs must be disjoint")


MAX_LINKAGE_N = 64

#: The default cap on the vertex count of one exhaustive induced-path search.
MAX_EXHAUSTIVE_N = 20


def exists_induced_path_with_parity(
    g: Graph, u: int, v: int, max_exhaustive_n: int = MAX_EXHAUSTIVE_N
) -> tuple[bool, bool]:
    """(odd, even): is there an induced u-v path of odd, of even length?

    One depth-first enumeration of the induced paths, keeping a blocked
    set (vertices adjacent to the interior), pruning branches from which
    v is unreachable, and stopping once both parities are seen.
    """
    if u == v:
        raise GraphInputError("parity query endpoints must differ")
    if g.n > max_exhaustive_n:
        raise SizeGuardError(
            f"induced-path search on {g.n} vertices exceeds cap {max_exhaustive_n}"
        )
    found = [False, False]  # by path length mod 2

    def reachable(frontier: int, blocked: set[int]) -> bool:
        seen = {frontier}
        stack = [frontier]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y == v:
                    return True
                if y not in seen and y not in blocked:
                    seen.add(y)
                    stack.append(y)
        return False

    def extend(last: int, length: int, blocked: set[int]) -> bool:
        """True once both parities are seen."""
        for w in g.sorted_neighbors(last):
            if w in blocked:
                continue
            if w == v:
                # v must avoid the interior's neighborhoods too, which the
                # blocked check just ensured
                found[(length + 1) % 2] = True
                if all(found):
                    return True
                continue
            new_blocked = blocked | {w} | g.neighbors(last)
            if not reachable(w, new_blocked):
                continue
            if extend(w, length + 1, new_blocked):
                return True
        return False

    extend(u, 0, {u})
    return found[1], found[0]


def find_two_disjoint_paths(g: Graph, query: LinkageQuery) -> tuple[list[int], list[int]] | None:
    """Vertex-disjoint paths s1-t1 and s2-t2, or None (a reference for the
    tests, not a decision step).

    Trivial paths (si == ti) are allowed; the other path must then avoid
    that vertex.  Exhaustive over s1-t1 paths, pruned by BFS reachability
    of both remaining jobs; the s2-t2 path is a BFS shortest path.
    """
    if g.n > MAX_LINKAGE_N:
        raise SizeGuardError(
            f"two-disjoint-paths search on {g.n} vertices exceeds cap "
            f"{MAX_LINKAGE_N}"
        )
    (s1, t1), (s2, t2) = query.pairs
    if s1 == t1:
        second = bfs_path(g, {s2}, {t2}, banned_vertices={s1})
        return ([s1], second) if second is not None else None
    if s2 == t2:
        first = bfs_path(g, {s1}, {t1}, banned_vertices={s2})
        return (first, [s2]) if first is not None else None

    sink_side = {s2, t2}

    def search(path: list[int], on_path: set[int]) -> tuple[list[int], list[int]] | None:
        last = path[-1]
        if last == t1:
            second = bfs_path(g, {s2}, {t2}, banned_vertices=on_path)
            if second is not None:
                return list(path), second
            return None
        for w in g.sorted_neighbors(last):
            if w in on_path or w in sink_side:
                continue
            path.append(w)
            on_path.add(w)
            # both remaining jobs must stay feasible
            if bfs_path(g, {s2}, {t2}, banned_vertices=on_path) is not None and (
                w == t1 or bfs_path(g, {w}, {t1}, banned_vertices=on_path - {w}) is not None
            ):
                found = search(path, on_path)
                if found is not None:
                    return found
            path.pop()
            on_path.remove(w)
        return None

    return search([s1], {s1})


def has_two_disjoint_odd_cycles(g: Graph, view) -> bool:
    """With exactly two odd-class edges, two vertex-disjoint odd cycles
    exist iff the odd edges' endpoint pairs admit disjoint linking paths
    in the graph without those edges.  A reference for the tests: the
    skewed-theta decision reads the same answer off its per-side flows.

    Every odd cycle must contain exactly one odd-class edge, and the rest
    of such a cycle is automatically an even-length path.
    """
    odd = view.odd_edges
    if len(odd) != 2:
        raise GraphInputError("expected exactly two odd-class edges")
    o1, o2 = odd
    if set(o1) & set(o2):
        return False
    stripped = g.without_edges([o1, o2])
    return find_two_disjoint_paths(stripped, LinkageQuery((o1, o2))) is not None
