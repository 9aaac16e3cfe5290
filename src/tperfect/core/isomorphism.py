"""Canonical forms: one isomorphism engine for the recognizer, the oracle
and the corpus enumerator.

Colour refinement to a stable colouring, then a lexicographic-minimum
search over the vertex orders that respect it (McKay, "Practical graph
isomorphism", 1981).  Two graphs are isomorphic exactly when their
canonical forms are equal.
"""

from __future__ import annotations

from .graph import Graph


def _stable_colors(g: Graph) -> list[int]:
    """Iterated neighborhood refinement to a stable coloring whose color
    indices are isomorphism-invariant (signatures are sorted globally)."""
    n = g.n
    colors = [g.degree(v) for v in range(n)]
    ranks = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> tuple:
    """Minimum adjacency bitstring over the refinement-respecting vertex
    permutations (vertices listed in nondecreasing stable-color order).

    Stable colors are isomorphism-invariant, so isomorphic graphs range
    over identical matrix sets and the minimum is a complete canonical
    form; restricting to color-respecting permutations keeps the
    branch-and-bound tiny.  Columns grow incrementally: extending the
    permutation shifts every pending column left and appends one
    adjacency bit.
    """
    n = g.n
    if n <= 1:
        return (n,)
    adj = [0] * n
    for u, w in g.edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    colors = _stable_colors(g)
    position_color = sorted(colors)
    best: list[int] | None = None

    def descend(k: int, used: int, pending: dict[int, int], cols: list[int]):
        nonlocal best
        if k == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        want = position_color[k]
        cmin = None
        cands: list[int] = []
        for v, col in pending.items():
            if used >> v & 1 or colors[v] != want:
                continue
            if cmin is None or col < cmin:
                cmin, cands = col, [v]
            elif col == cmin:
                cands.append(v)
        cols.append(cmin)
        # incumbent may improve while siblings run; re-compare every time
        if best is None or cols <= best[: k + 1]:
            for v in cands:
                av = adj[v]
                nxt = {
                    w: (col << 1) | ((av >> w) & 1)
                    for w, col in pending.items()
                    if w != v
                }
                descend(k + 1, used | (1 << v), nxt, cols)
        cols.pop()

    descend(0, 0, {v: 0 for v in range(n)}, [])
    assert best is not None
    return (n, tuple(position_color), *best[1:])


def is_isomorphic_small(g: Graph, h: Graph) -> bool:
    """Exact isomorphism decision by canonical forms."""
    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)
