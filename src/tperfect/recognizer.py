"""Recognition of t-perfect claw-free graphs.

The pipeline decides per 2-connected block: line graphs are settled
through their root graph (root maximum degree, then skewed-theta
detection), a degree-5 vertex or one of the two 3-connected squared-cycle
obstructions settles negatively, three exceptional graphs settle
positively, any other 3-connected block is t-imperfect, and the remaining
blocks split along an order-2 separation into two strictly smaller sides
whose treatment depends on which induced-path parities the separator pair
admits on each side.  Blocks and sides alike are (graph, old->new map)
children of one loop: each must shrink and gets the line-graph check,
and only a rootless child is scanned for a claw, as an invariant check.

Every decision carries a certificate: the ordered trace of fired rules,
each naming the rule, the subgraph it fired on (as original-input vertex
sets, composed through all identifications), and for separations the
separator pair and the parity case applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .core.connectivity import (
    blocks,
    find_two_separation,
    is_three_connected,  # unused here; the traced benchmark wraps it by this name
)
from .core.graph import Graph, identify_vertices
from .core.isomorphism import (
    canonical_form,
    is_isomorphic_small,  # unused here; the traced benchmark wraps it by this name
)
from .core.named import (
    squared_cycle,
    squared_cycle_6_minus_edge,
    squared_cycle_minus_vertex,
)
from .errors import NotClawFreeError, check
from .linegraph import RootMapping, recognize_line_graph
from .parity import MAX_EXHAUSTIVE_N, exists_induced_path_with_parity
from .theta import has_skewed_theta

T_PERFECT = "t-perfect"
NOT_T_PERFECT = "not-t-perfect"


@dataclass(frozen=True)
class ClawWitness:
    centre: int
    leaves: tuple[int, int, int]


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    vertices: tuple[tuple[int, ...], ...]
    detail: dict

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "vertices": [list(v) for v in self.vertices],
            "detail": self.detail,
        }


@dataclass
class Decision:
    t_perfect: bool
    certificate: tuple[TraceEntry, ...]
    stats: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return T_PERFECT if self.t_perfect else NOT_T_PERFECT

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": [e.to_json() for e in self.certificate],
            "stats": dict(sorted(self.stats.items())),
        }


def find_claw(g: Graph) -> ClawWitness | None:
    """An induced claw if one exists: scan each vertex's neighborhood for
    an independent triple."""
    for u in range(g.n):
        nbrs = g.sorted_neighbors(u)
        for a, b, c in combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return ClawWitness(u, (a, b, c))
    return None


@cache
def _exceptional_forms() -> dict[tuple[int, int], tuple[str, tuple, bool]]:
    """The five fixed graphs as (name, canonical form, t-perfect), keyed
    by their (n, m), which already tell them apart."""
    fixed = (
        ("squared-cycle-7", squared_cycle(7), False),
        ("squared-cycle-10", squared_cycle(10), False),
        ("squared-cycle-6-minus-edge", squared_cycle_6_minus_edge(), True),
        ("squared-cycle-7-minus-vertex", squared_cycle_minus_vertex(7), True),
        ("squared-cycle-10-minus-vertex", squared_cycle_minus_vertex(10), True),
    )
    forms = {(h.n, h.m): (name, canonical_form(h), good) for name, h, good in fixed}
    check(len(forms) == len(fixed), "the fixed graphs differ in n or m")
    return forms


class _Run:
    """Mutable state for one recognition run: the parity-search cap,
    counters, trace."""

    def __init__(self, max_exhaustive_n: int):
        self.max_exhaustive_n = max_exhaustive_n
        self.trace: list[TraceEntry] = []
        self.decide_calls = 0
        self.parity_queries = 0
        self.theta_rules = 0

    def log(self, rule: str, origins, detail: dict | None = None):
        """Record a rule applied to the whole current graph: its scope is
        the sorted origins of all its vertices."""
        scope = tuple(sorted(tuple(sorted(o)) for o in origins))
        self.trace.append(TraceEntry(rule, scope, detail or {}))

    def parity(self, g: Graph, u: int, v: int) -> tuple[bool, bool]:
        """(odd, even) induced u-v paths in g, from one search."""
        self.parity_queries += 1
        return exists_induced_path_with_parity(g, u, v, self.max_exhaustive_n)


def is_t_perfect(g: Graph, max_exhaustive_n: int = MAX_EXHAUSTIVE_N) -> Decision:
    """Decide t-perfection of a claw-free graph.

    Raises NotClawFreeError (with witness) on non-claw-free input.  Line
    graphs are claw-free, so every input is tried as one first and
    scanned for a claw only when it has no root.  Inputs are decided per
    block and conjoined: a disconnected input has no root and more than
    one block, so its components need no search of their own.
    `max_exhaustive_n` caps the vertex count of each exhaustive
    induced-path search.
    """
    root = recognize_line_graph(g)
    if root is None:
        witness = find_claw(g)
        if witness is not None:
            raise NotClawFreeError(witness.centre, witness.leaves)
    run = _Run(max_exhaustive_n)
    origins = tuple(frozenset([v]) for v in range(g.n))
    verdict = g.n == 0 or _decide(run, g, origins, root)
    stats = {
        "decide_calls": run.decide_calls,
        "parity_queries": run.parity_queries,
        "theta_rules": run.theta_rules,
        "rule_applications": run.decide_calls + run.theta_rules,
    }
    return Decision(verdict, tuple(run.trace), stats)


def _decide(run: _Run, g: Graph, origins, root: RootMapping | None) -> bool:
    """The recursion on a nonempty graph.  Callers pass `root`, g's root
    or None, so every child gets the line-graph check first, like the
    input.

    The full call tree on n >= 1 vertices has at most 2n - 1 calls: a
    call with children has two or more, and there are at most n leaves.
    By induction a connected g on n >= 3 vertices has at most n - 2.  A
    line graph is one leaf, as is every graph on two or fewer vertices.
    Separation sides of a, b >= 3 vertices, a + b = n + 2, share only u
    and v, and at most one loses a vertex to identification.  Blocks
    share only cut vertices, so their sizes less one sum to n - 1, and one
    has 3 or more vertices (a claw-free tree is a path, a line graph).  A
    disconnected input's blocks give at most n leaves."""
    run.decide_calls += 1

    # line graphs are settled through their root graph
    if root is not None:
        if root.root.max_degree() >= 4:
            run.log("line-graph-root-degree", origins, {"max_degree": root.root.max_degree()})
            return False
        verdict = has_skewed_theta(root.root)
        run.theta_rules += len(verdict.trace)
        detail = {"outcome": verdict.outcome, "root_n": root.root.n}
        run.log("line-graph-root-theta", origins, detail)
        return not verdict.contains

    parts = blocks(g)
    if len(parts) > 1:
        run.log("block-split", origins, {"blocks": len(parts)})
        children = (g.induced(blk) for blk in parts)
    else:
        if g.max_degree() >= 5:
            run.log("degree-screen", origins, {"max_degree": g.max_degree()})
            return False
        fixed = _exceptional_forms().get((g.n, g.m))
        if fixed is not None and canonical_form(g) == fixed[1]:
            name, _, good = fixed
            rule = "exceptional-t-perfect" if good else "exceptional-t-imperfect"
            run.log(rule, origins, {"graph": name})
            return good
        check(g.n >= 4, "blocks below four vertices are line graphs")
        # one search for the least separating pair: none means 3-connected
        sep = find_two_separation(g)
        if sep is None:
            run.log("three-connected", origins, {"n": g.n})
            return False
        u, v, first = sep
        sides = [g.induced(first | {u, v}), g.induced(set(range(g.n)) - first)]
        pair_detail = {"separator": [sorted(origins[u]), sorted(origins[v])]}
        if g.has_edge(u, v):
            # complete separator: both sides decide independently
            run.log("complete-separator-split", origins, pair_detail)
            children = sides
        else:
            parities = tuple(p for sub, mp in sides for p in run.parity(sub, mp[u], mp[v]))
            case, children = _reduced_sides(sides, u, v, parities)
            if case == "mixed-parities-both-sides":
                run.log(case, origins, pair_detail)
                return False
            run.log(case, origins, {**pair_detail, "parities": list(parities)})

    # L(root) = child has no claw, so only a rootless child is scanned
    for child, old_to_new in children:
        check(child.n < g.n, "children must shrink")
        child_root = recognize_line_graph(child)
        if child_root is None:
            check(find_claw(child) is None, "children must stay claw-free")
        if not _decide(run, child, _compose_origins(origins, old_to_new, child.n), child_root):
            return False
    return True


def _compose_origins(origins, old_to_new, child_n):
    # identified vertices share a new index, so their origins union up
    out = [frozenset() for _ in range(child_n)]
    for old, new in old_to_new.items():
        out[new] = out[new] | origins[old]
    return tuple(out)


def _reduced_sides(sides, u, v, parities):
    """Case split on induced separator-path parities.

    `sides` are two (graph, old->new map) pairs, and parities = (odd in
    side 1, even in side 1, odd in side 2, even in side 2).  One rule
    serves odd, then even: on neither side the sides stay as they are
    (separation-<parity>-neither-side); on one side alone that side comes
    first, with u and v identified for odd or joined for even, and the
    other side gets the other treatment (separation-<parity>-one-side);
    odd on both sides passes to even, and even on both sides is
    mixed-parities-both-sides, with children None.  Returns (case name,
    children).
    """
    o1, e1, o2, e2 = parities
    check(o1 or e1, "a connected side admits an induced separator path")
    check(o2 or e2, "a connected side admits an induced separator path")

    def identified(gs, mp):
        merged, mp2 = identify_vertices(gs, mp[u], mp[v])
        return merged, {old: mp2[new] for old, new in mp.items()}

    def with_edge(gs, mp):
        return gs.with_edge(mp[u], mp[v]), mp

    for kind, on1, on2, lone_gets, other_gets in (
        ("odd", o1, o2, identified, with_edge),
        ("even", e1, e2, with_edge, identified),
    ):
        if not (on1 or on2):
            return f"separation-{kind}-neither-side", sides
        if on1 != on2:
            lone, other = sides if on1 else sides[::-1]
            return f"separation-{kind}-one-side", [lone_gets(*lone), other_gets(*other)]
    return "mixed-parities-both-sides", None
