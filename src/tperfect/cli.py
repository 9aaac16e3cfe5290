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
from dataclasses import dataclass, field

from .core.graph import Graph
from .corpus import KINDS, generate_corpus
from .errors import GraphInputError, NotClawFreeError, SizeGuardError
from .io import GraphDocument, graph_to_graph6, parse, serialize
from .linegraph import recognize_line_graph
from .oracle import (
    has_skewed_prism_bruteforce,
    has_skewed_theta_bruteforce,
    is_t_perfect_bruteforce,
)
from .parity import ParityConfig
from .recognizer import is_t_perfect
from .theta import has_skewed_theta

USAGE_ERROR = 64
INPUT_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class Report:
    command: str
    input_name: str
    n: int | None  # None when the graph could not be parsed
    m: int | None
    result: dict
    config: dict = field(default_factory=dict)
    timing_ms: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "input": {"name": self.input_name, "n": self.n, "m": self.m},
            "result": self.result,
            "config": self.config,
            "timing_ms": round(self.timing_ms, 3),
        }
        return json.dumps(payload, sort_keys=True)


def _read_graphs(path: str, fmt: str | None) -> list[tuple[str, GraphDocument]]:
    """The named documents of an input file, one per graph.  They are
    parsed one at a time by `_each_graph`, so a malformed graph6 line
    costs only its own report."""
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = path
    if fmt is None:
        if path.endswith(".g6"):
            fmt = "graph6"
        elif path.endswith(".el"):
            fmt = "edge-list"
        else:
            raise GraphInputError(
                f"cannot infer format of {path!r}; pass --format"
            )
    if fmt == "graph6":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphInputError("no graphs in input")
        return [
            (f"{name}[{i}]" if len(lines) > 1 else name,
             GraphDocument("graph6", ln))
            for i, ln in enumerate(lines)
        ]
    return [(name, GraphDocument("edge-list", text))]


def _parity_config(args) -> ParityConfig:
    return ParityConfig(
        backend=args.parity_backend,
        max_exhaustive_n=args.max_exhaustive_n,
    )


def _emit(report: Report, out) -> None:
    print(report.to_json(), file=out)


_GRAPH_ERRORS = (NotClawFreeError, SizeGuardError, GraphInputError)


def _error_result(exc: Exception) -> dict:
    """The report result for a graph whose parse or decision raised `exc`."""
    if isinstance(exc, NotClawFreeError):
        return {"error": "not-claw-free", "centre": exc.centre,
                "leaves": list(exc.leaves)}
    kind = "size-guard" if isinstance(exc, SizeGuardError) else "input-error"
    return {"error": kind, "message": str(exc)}


def _each_graph(command: str, args, out, decide, error_fields=None) -> int:
    """Parse and decide every graph of the input file in turn, one report
    each.  `decide(g)` returns (result, exit code); a graph whose parse or
    decision raises gets an error report (plus `error_fields`) and exit
    code 2, and the run goes on.  Returns the worst exit code."""
    worst = 0
    for name, doc in _read_graphs(args.file, args.format):
        t0 = time.perf_counter()
        n = m = None
        try:
            g = parse(doc)
            n, m = g.n, g.m
            result, code = decide(g)
        except _GRAPH_ERRORS as exc:
            result, code = {**_error_result(exc), **(error_fields or {})}, INPUT_ERROR
        _emit(Report(command, name, n, m, result, _config_dict(args),
                     (time.perf_counter() - t0) * 1000), out)
        worst = max(worst, code)
    return worst


def _cmd_recognize(args, out) -> int:
    config = _parity_config(args)

    def decide(g):
        decision = is_t_perfect(g, config)
        result = {"verdict": decision.verdict, "stats": decision.stats}
        if args.trace:
            result["certificate"] = [e.to_json() for e in decision.certificate]
        return result, 0 if decision.t_perfect else 1

    return _each_graph("recognize", args, out, decide)


def _cmd_skewed_theta(args, out) -> int:
    config = _parity_config(args)

    def decide(g):
        verdict = has_skewed_theta(g, config)
        result = {"outcome": verdict.outcome}
        if args.trace:
            result["trace"] = [[rule, info] for rule, info in verdict.trace]
        return result, 1 if verdict.contains else 0

    return _each_graph("skewed-theta", args, out, decide)


def _cmd_line_root(args, out) -> int:
    def decide(g):
        roots = []
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
            roots.append(rm.root)
            offset += rm.root.n
        if not roots:
            return {"is_line_graph": False}, 1
        total = Graph(
            offset,
            [
                (u + off, v + off)
                for root, off in zip(roots, _offsets(roots))
                for u, v in root.edges
            ],
        )
        return {
            "is_line_graph": True,
            "root_graph6": graph_to_graph6(total),
            "root_edge_to_vertex": mapping,
        }, 0

    return _each_graph("line-root", args, out, decide)


def _offsets(roots):
    off = 0
    for root in roots:
        yield off
        off += root.n


def _cmd_oracle(args, out) -> int:
    def decide(g):
        if args.question == "tperfect":
            answer = is_t_perfect_bruteforce(g)
            positive = not answer
        elif args.question == "theta":
            answer = has_skewed_theta_bruteforce(g)
            positive = answer
        else:
            answer = has_skewed_prism_bruteforce(g)
            positive = answer
        return {"question": args.question, "answer": bool(answer)}, 1 if positive else 0

    return _each_graph("oracle", args, out, decide, {"question": args.question})


def _cmd_gen(args, out) -> int:
    graphs = generate_corpus(args.kind, args.count, args.seed,
                             n_min=args.min_n, n_max=args.max_n)
    for g in graphs:
        print(serialize(g, "graph6"), file=out)
    return 0


def _cmd_corpus_check(args, out) -> int:
    config = _parity_config(args)
    graphs = generate_corpus(
        "random-clawfree-via-linegraph", args.samples, args.seed,
        n_min=4, n_max=args.max_n,
    )
    agree = 0
    records = []
    for i, g in enumerate(graphs):
        t0 = time.perf_counter()
        mine = is_t_perfect(g, config).t_perfect
        truth = is_t_perfect_bruteforce(g)
        records.append((i, g, mine, truth))
        if mine == truth:
            agree += 1
        _emit(Report("corpus-check", f"sample[{i}]", g.n, g.m,
                     {"graph6": graph_to_graph6(g),
                      "recognizer": "t-perfect" if mine else "not-t-perfect",
                      "oracle": "t-perfect" if truth else "not-t-perfect",
                      "agree": mine == truth},
                     _config_dict(args), (time.perf_counter() - t0) * 1000), out)
    total = len(records)
    t_perfect = sum(1 for _, _, m, _ in records if m)
    print(f"# corpus-check samples={total} agree={agree} "
          f"disagree={total - agree} t-perfect={t_perfect} "
          f"not-t-perfect={total - t_perfect}", file=out)
    return 0 if agree == total else 1


def _config_dict(args) -> dict:
    cfg = {}
    for key in ("parity_backend", "max_exhaustive_n", "format", "trace"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _build_parser() -> _Parser:
    parser = _Parser(prog="tperfect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="input file (.g6/.el or - for stdin)")
            p.add_argument("--format", choices=("graph6", "edge-list"))
        p.add_argument("--parity-backend", choices=("exhaustive", "polynomial"),
                       default="exhaustive")
        p.add_argument("--max-exhaustive-n", type=int, default=20)
        p.add_argument("--trace", action="store_true")

    add_common(sub.add_parser("recognize", help="decide t-perfection"))
    add_common(sub.add_parser("skewed-theta", help="skewed theta in a subcubic graph"))
    p = sub.add_parser("line-root", help="reconstruct a line-graph root")
    p.add_argument("file")
    p.add_argument("--format", choices=("graph6", "edge-list"))
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.add_argument("file")
    p.add_argument("--format", choices=("graph6", "edge-list"))
    p.add_argument("--question", choices=("tperfect", "theta", "prism"),
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
    p.add_argument("--parity-backend", choices=("exhaustive", "polynomial"),
                   default="exhaustive")
    p.add_argument("--max-exhaustive-n", type=int, default=20)
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
    except (GraphInputError, FileNotFoundError, SizeGuardError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=out)
        return INPUT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
