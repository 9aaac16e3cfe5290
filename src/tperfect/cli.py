"""Command-line surface: recognition, theta checks, root reconstruction,
ground-truth oracle queries, corpus generation, and recognizer-vs-oracle
sweeps.

Reports are line-delimited JSON so corpus runs stream; replaying the same
input and flags reproduces byte-identical reports except for the timing
field.  Exit codes: 0 for the negative/benign outcome (t-perfect, no
theta, root found, full agreement), 1 for the positive finding, 2 for
input errors, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from functools import partial

from .core.graph import Graph
from .corpus import KINDS, generate_corpus
from .errors import GraphInputError, NotClawFreeError, SizeGuardError
from .io import edge_list_to_graph, graph6_to_graph, graph_to_graph6
from .linegraph import recognize_line_graph
from .oracle import (
    has_skewed_prism_bruteforce,
    has_skewed_theta_bruteforce,
    is_t_perfect_bruteforce,
)
from .parity import MAX_EXHAUSTIVE_N
from .recognizer import is_t_perfect
from .theta import has_skewed_theta

USAGE_ERROR = 64
INPUT_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_READERS = {"graph6": graph6_to_graph, "edge-list": edge_list_to_graph}
_SUFFIXES = {".g6": "graph6", ".el": "edge-list"}


def _read_graphs(args) -> list[tuple[str, Callable[[], Graph], dict]]:
    """The `_each_graph` items of the input file `args.file`, one per
    graph: a graph6 file gives one per nonblank line, so a malformed line
    costs only its own report.  A file that cannot be read as UTF-8 text
    (missing, a directory, undecodable) is a GraphInputError."""
    path, fmt = args.file, args.format
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read {path!r}: {exc}") from None
    name = "<stdin>" if path == "-" else path
    if fmt is None:
        fmt = next((f for suffix, f in _SUFFIXES.items() if path.endswith(suffix)), None)
        if fmt is None:
            raise GraphInputError(
                f"cannot infer format of {path!r}; pass --format"
            )
    read = _READERS[fmt]
    if fmt == "edge-list":
        return [(name, partial(read, text), {})]
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphInputError("no graphs in input")
    return [
        (f"{name}[{i}]" if len(lines) > 1 else name, partial(read, ln), {})
        for i, ln in enumerate(lines)
    ]


_GRAPH_ERRORS = (NotClawFreeError, SizeGuardError, GraphInputError)


def _error_result(exc: Exception) -> dict:
    """The report result for a graph whose parse or decision raised `exc`."""
    if isinstance(exc, NotClawFreeError):
        return {"error": "not-claw-free", "centre": exc.centre,
                "leaves": list(exc.leaves)}
    kind = "size-guard" if isinstance(exc, SizeGuardError) else "input-error"
    return {"error": kind, "message": str(exc)}


def _each_graph(args, items, decide, out) -> list[int]:
    """Load and decide each `(name, load, fields)` item in turn, writing
    one JSON report line each.  `decide(g)` returns (result, exit code);
    an item whose load or decision raises gets an error result and exit
    code 2, and the run goes on.  `fields` are merged into the result
    either way.  Returns the exit codes in item order."""
    config = {k: v for k, v in vars(args).items()
              if k in ("format", "max_exhaustive_n", "trace")}
    codes = []
    for name, load, fields in items:
        t0 = time.perf_counter()
        n = m = None
        try:
            g = load()
            n, m = g.n, g.m
            result, code = decide(g)
        except _GRAPH_ERRORS as exc:
            result, code = _error_result(exc), INPUT_ERROR
        report = {
            "command": args.command,
            "input": {"name": name, "n": n, "m": m},
            "result": {**result, **fields},
            "config": config,
            "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
        print(json.dumps(report, sort_keys=True), file=out)
        codes.append(code)
    return codes


def _cmd_recognize(args, out) -> int:
    def decide(g):
        decision = is_t_perfect(g, args.max_exhaustive_n)
        result = {"verdict": decision.verdict, "stats": decision.stats}
        if args.trace:
            result["certificate"] = [e.to_json() for e in decision.certificate]
        return result, 0 if decision.t_perfect else 1

    return max(_each_graph(args, _read_graphs(args), decide, out))


def _cmd_skewed_theta(args, out) -> int:
    def decide(g):
        verdict = has_skewed_theta(g)
        result = {"outcome": verdict.outcome}
        if args.trace:
            result["trace"] = [[rule, info] for rule, info in verdict.trace]
        return result, 1 if verdict.contains else 0

    return max(_each_graph(args, _read_graphs(args), decide, out))


def _cmd_line_root(args, out) -> int:
    def decide(g):
        edges = []
        mapping = {}
        offset = 0
        for comp in g.connected_components():
            sub, old_to_new = g.induced(comp)
            rm = recognize_line_graph(sub)
            if rm is None:
                return {"is_line_graph": False}, 1
            new_to_old = {i: o for o, i in old_to_new.items()}
            for (a, b), vtx in sorted(rm.edge_to_vertex.items()):
                mapping[f"{a + offset},{b + offset}"] = new_to_old[vtx]
            edges.extend((u + offset, v + offset) for u, v in rm.root.edges)
            offset += rm.root.n
        if not mapping:
            return {"is_line_graph": False}, 1
        total = Graph(offset, edges)
        return {
            "is_line_graph": True,
            "root_graph6": graph_to_graph6(total),
            "root_edge_to_vertex": mapping,
        }, 0

    return max(_each_graph(args, _read_graphs(args), decide, out))


# question -> (brute-force oracle, the answer that is the positive finding)
_ORACLES = {
    "tperfect": (is_t_perfect_bruteforce, False),
    "theta": (has_skewed_theta_bruteforce, True),
    "prism": (has_skewed_prism_bruteforce, True),
}


def _cmd_oracle(args, out) -> int:
    oracle, positive = _ORACLES[args.question]

    def decide(g):
        answer = bool(oracle(g))
        return {"answer": answer}, 1 if answer == positive else 0

    items = [(name, load, {"question": args.question})
             for name, load, _ in _read_graphs(args)]
    return max(_each_graph(args, items, decide, out))


def _cmd_gen(args, out) -> int:
    graphs = generate_corpus(args.kind, args.count, args.seed,
                             n_min=args.min_n, n_max=args.max_n)
    for g in graphs:
        print(graph_to_graph6(g), file=out)
    return 0


def _cmd_corpus_check(args, out) -> int:
    """Recognizer against oracle on each sample: exit code 0 where they
    agree, 1 where they disagree, and 2 where either side refuses, with
    an error record like any other command's.  The summary line counts
    those codes; the exit code is the worst of them."""
    graphs = generate_corpus(
        "random-clawfree-via-linegraph", args.samples, args.seed,
        n_min=4, n_max=args.max_n,
    )
    t_perfect = 0

    def decide(g):
        nonlocal t_perfect
        mine = is_t_perfect(g).t_perfect
        truth = is_t_perfect_bruteforce(g)
        t_perfect += mine
        return {"recognizer": "t-perfect" if mine else "not-t-perfect",
                "oracle": "t-perfect" if truth else "not-t-perfect",
                "agree": mine == truth}, 0 if mine == truth else 1

    items = [(f"sample[{i}]", lambda g=g: g, {"graph6": graph_to_graph6(g)})
             for i, g in enumerate(graphs)]
    codes = _each_graph(args, items, decide, out)
    agree, disagree = codes.count(0), codes.count(1)
    print(f"# corpus-check samples={len(graphs)} agree={agree} "
          f"disagree={disagree} refused={codes.count(INPUT_ERROR)} "
          f"t-perfect={t_perfect} not-t-perfect={agree + disagree - t_perfect}",
          file=out)
    return max(codes)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tperfect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", help="input file (.g6/.el or - for stdin)")
        p.add_argument("--format", choices=tuple(_READERS))

    p = sub.add_parser("recognize", help="decide t-perfection")
    add_input(p)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--max-exhaustive-n", type=int, default=MAX_EXHAUSTIVE_N)
    p = sub.add_parser("skewed-theta", help="skewed theta in a subcubic graph")
    add_input(p)
    p.add_argument("--trace", action="store_true")
    add_input(sub.add_parser("line-root", help="reconstruct a line-graph root"))
    p = sub.add_parser("oracle", help="brute-force ground truth")
    add_input(p)
    p.add_argument("--question", choices=tuple(_ORACLES),
                   required=True)
    p = sub.add_parser("gen", help="emit a seeded corpus as graph6 lines")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=12)
    p = sub.add_parser("corpus-check",
                       help="recognizer-vs-oracle agreement sweep")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "recognize": _cmd_recognize,
    "skewed-theta": _cmd_skewed_theta,
    "line-root": _cmd_line_root,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "corpus-check": _cmd_corpus_check,
}


def run_cli(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _HANDLERS[args.command](args, out)
    except (GraphInputError, SizeGuardError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=out)
        return INPUT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
