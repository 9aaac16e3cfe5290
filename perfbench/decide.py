"""The deciding process: one client in a closed loop, no threads.

Reads graph6 lines on stdin, imports `tperfect` from the checkout's `src/`
and decodes the text with `tperfect.io` (timed together as set-up), then
decides one graph after another with `is_t_perfect`, in whole rounds over
the list, until `--seconds` have passed.  Prints one JSON object: set-up
time, every decision's time and outcome (per graph, one per round), peak
resident memory, and with `--trace 1` the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    lines = sys.stdin.read().split()

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    from tperfect import is_t_perfect
    from tperfect.io import graph6_to_graph

    graphs = [graph6_to_graph(s) for s in lines]
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    from tperfect.core.named import squared_cycle

    # builds the lazily cached exceptional graphs before timing starts
    is_t_perfect(squared_cycle(7))

    out: dict = {"setup_s": setup_s}
    decide = is_t_perfect
    tracer = None
    if args.trace:
        from spans import Tracer

        start = perf_counter()
        for s in lines:
            graph6_to_graph(s)
        out["decode_s"] = perf_counter() - start
        tracer = Tracer()
        tracer.install()
        decide = tracer.wrap("recognizer", is_t_perfect)

    times: list[list[float]] = [[] for _ in graphs]
    outcomes: list[list] = [[] for _ in graphs]
    stats = {"decide_calls": 0, "rule_applications": 0, "theta_rules": 0}
    rounds, round_s = 0, 0.0
    start = perf_counter()
    # whole rounds only, and none that would end past --seconds
    while rounds == 0 or perf_counter() - start + round_s <= args.seconds:
        round_start = perf_counter()
        for i, g in enumerate(graphs):
            t0 = perf_counter()
            try:
                decision = decide(g)
            except Exception as exc:  # a failed operation; the loop goes on
                times[i].append(perf_counter() - t0)
                outcomes[i].append(f"{type(exc).__name__}: {exc}")
                continue
            times[i].append(perf_counter() - t0)
            outcomes[i].append(decision.t_perfect)
            for key in stats:
                stats[key] += decision.stats[key]
        rounds += 1
        round_s = perf_counter() - round_start
        if tracer is not None:
            tracer.keep_spans = False

    out.update(
        rounds=rounds,
        times=times,
        outcomes=outcomes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out.update(
            stats=stats,
            calls=tracer.calls,
            self_s=tracer.self_s,
            hits=tracer.hits,
        )
        if args.trace_out:
            tracer.write(
                args.trace_out,
                {key: out[key] for key in ("rounds", "stats", "calls", "self_s", "hits")},
            )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
