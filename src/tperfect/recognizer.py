"""Recognition of t-perfect claw-free graphs.

The pipeline decides per 2-connected block: line graphs are settled
through their root graph (root maximum degree, then skewed-theta
detection), a degree-5 vertex or one of the two 3-connected squared-cycle
obstructions settles negatively, three exceptional graphs settle
positively, any other 3-connected block is t-imperfect, and the remaining
blocks split along an order-2 separation into two strictly smaller sides
whose treatment depends on which induced-path parities the separator pair
admits on each side.

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
    input."""
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
        for blk in parts:
            sub, old_to_new = g.induced(blk)
            sub_origins = tuple(origins[old] for old in old_to_new)
            if not _decide(run, sub, sub_origins, recognize_line_graph(sub)):
                return False
        return True

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
    u, v = sorted(sep.cut)
    side1, side2 = sorted(sep.g1_vertices), sorted(sep.g2_vertices)
    g1, map1 = g.induced(side1)
    g2, map2 = g.induced(side2)
    pair_detail = {"separator": [sorted(origins[u]), sorted(origins[v])]}

    if g.has_edge(u, v):
        # complete separator: both sides decide independently
        run.log("complete-separator-split", origins, pair_detail)
        children = [(g1, map1), (g2, map2)]
    else:
        parities = (
            *run.parity(g1, map1[u], map1[v]),
            *run.parity(g2, map2[u], map2[v]),
        )
        case, built = _reduced_sides((g1, map1), (g2, map2), u, v, parities)
        if case == "mixed-parities-both-sides":
            run.log(case, origins, pair_detail)
            return False
        run.log(case, origins, {**pair_detail, "parities": list(parities)})
        children = built

    for child, old_to_new in children:
        child_origins = _compose_origins(origins, old_to_new, child.n)
        w = find_claw(child)
        check(w is None, "separation children must stay claw-free")
        check(child.n < g.n, "separation children must shrink")
        if not _decide(run, child, child_origins, recognize_line_graph(child)):
            return False
    return True


def _compose_origins(origins, old_to_new, child_n):
    # identified vertices share a new index, so their origins union up
    out = [frozenset() for _ in range(child_n)]
    for old, new in old_to_new.items():
        out[new] = out[new] | origins[old]
    return tuple(out)


def _reduced_sides(side1, side2, u, v, parities):
    """Case split on induced separator-path parities.

    parities = (odd in side1, even in side1, odd in side2, even in side2).
    Returns (case name, children) where each child is
    (graph, old->new map into it); children is None in the mixed case.
    """
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
