"""Benchmark of the claw-free t-perfection recognizer.

    python3 perfbench/run.py --workload line-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds the workload's inputs from the
seed with networkx (`workloads.py`), hands them as graph6 text to
WORKERS deciding processes in turn, or to one traced process with
`--trace 1` (`decide.py`), checks every verdict against the expected one
fixed by the construction, and prints one JSON object as its last line:
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` a traced pass gives the
per-layer ones, and the first round's spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # set-up-only processes before and again after the measuring ones
# untraced deciding processes, one after another, each given an equal share
# of --seconds: the speed of one process differs from the next by up to
# 15 % on the same inputs, and pooling several averages that out
WORKERS = 5
TIMEOUT_S = 120


def decider(text: str, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "decide.py"), *flags],
        input=text,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"deciding process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def score(expected: list[bool], outcomes: list[list]) -> tuple[int, int, int]:
    """(attempted, failed, wrong): an exception or a wrong verdict fails
    the operation; `wrong` counts the wrong verdicts alone."""
    attempted = failed = wrong = 0
    for want, got in zip(expected, outcomes, strict=True):
        for outcome in got:
            attempted += 1
            if outcome is not want:
                failed += 1
                wrong += isinstance(outcome, bool)
    return attempted, failed, wrong


def merge(parts: list[dict]) -> dict:
    """One run from the outputs of several untraced deciding processes."""
    return {
        "rounds": sum(p["rounds"] for p in parts),
        "times": [sum(ts, []) for ts in zip(*(p["times"] for p in parts))],
        "outcomes": [sum(got, []) for got in zip(*(p["outcomes"] for p in parts))],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }


def end_to_end(runs: dict, setups: list[float]) -> dict:
    # every decision of every round: the shared machine's speed drifts by
    # tens of percent over seconds, and quantiles over the whole run average
    # that drift out
    times = [t for per_graph in runs["times"] for t in per_graph]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "graphs_per_s": (len(times) / sum(times), "graphs/s"),
        "decide_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "decide_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (runs["peak_rss_mb"], "MB"),
    }


def per_layer(runs: dict) -> dict:
    rounds = runs["rounds"]
    calls, self_s, stats = runs["calls"], runs["self_s"], runs["stats"]

    def per_round(x: float) -> float:
        return x / rounds

    def layer(name: str, prefix: str, calls_key: str = "calls", time_key: str = "self_s"):
        return {
            f"{prefix}.{calls_key}": (per_round(calls.get(name, 0)), "calls/round"),
            f"{prefix}.{time_key}": (per_round(self_s.get(name, 0.0)), "s/round"),
        }

    lg_calls = calls.get("linegraph", 0)
    return {
        "io.decode_s": (runs["decode_s"], "s"),
        "recognizer.decide_s": (per_round(sum(map(sum, runs["times"]))), "s/round"),
        "recognizer.self_s": (per_round(self_s.get("recognizer", 0.0)), "s/round"),
        **layer("recognizer.claw", "recognizer", "claw_calls", "claw_s"),
        **layer("linegraph", "linegraph"),
        "linegraph.hit_ratio": (runs["hits"].get("linegraph", 0) / max(lg_calls, 1), "ratio"),
        **layer("theta", "theta"),
        "theta.phase1.flips": (per_round(calls.get("theta.phase1.flip", 0)), "flips/round"),
        "theta.phase1.triads_s": (per_round(self_s.get("theta.phase1.triads", 0.0)), "s/round"),
        "theta.phase1.flip_s": (per_round(self_s.get("theta.phase1.flip", 0.0)), "s/round"),
        **layer("theta.phase2", "theta.phase2"),
        "theta.rules": (per_round(stats["theta_rules"]), "rules/round"),
        **layer("flow", "flow"),
        **layer("connectivity.blocks", "connectivity", "blocks_calls", "blocks_s"),
        **layer("connectivity.three_conn", "connectivity", "three_conn_calls", "three_conn_s"),
        **layer("connectivity.two_sep", "connectivity", "two_sep_calls", "two_sep_s"),
        **layer("parity", "parity"),
        **layer("isomorphism", "isomorphism"),
        "recognizer.decide_calls": (per_round(stats["decide_calls"]), "calls/round"),
        "recognizer.rule_applications": (per_round(stats["rule_applications"]), "rules/round"),
        "graph.builds": (per_round(calls.get("graph.build", 0)), "builds/round"),
        "graph.build_s": (per_round(self_s.get("graph.build", 0.0)), "s/round"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tperfect" / "__init__.py").is_file():
        print(f"no tperfect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cases = workloads.generate(args.workload, args.seed)
    text = "".join(workloads.to_graph6(c.graph) + "\n" for c in cases)

    def setups() -> list[float]:
        return [decider(text, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]

    before = setups()
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_out = str(out_dir / f"trace-{args.workload}-{args.seed}.json")
        parts = [decider(text, "--seconds", str(args.seconds), "--trace", "1", "--trace-out", trace_out)]
        runs = parts[0]
    else:
        share = str(args.seconds / WORKERS)
        parts = [decider(text, "--seconds", share) for _ in range(WORKERS)]
        runs = merge(parts)
    # setup_s is the median of all of them, spread over the run's span
    setup_samples = [*before, *(p["setup_s"] for p in parts), *setups()]

    attempted, failed, wrong = score([c.t_perfect for c in cases], runs["outcomes"])
    for case, got in zip(cases, runs["outcomes"]):
        for outcome in set(map(str, got)) - {str(case.t_perfect)}:
            print(f"FAILED {case.family}: expected {case.t_perfect}, got {outcome}", file=sys.stderr)
    metrics = per_layer(runs) if args.trace else end_to_end(runs, setup_samples)
    print(f"{args.workload} seed={args.seed}: {len(cases)} graphs x {runs['rounds']} rounds")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
