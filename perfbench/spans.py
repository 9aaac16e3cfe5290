"""Per-layer spans for the traced pass, recorded from outside the program.

`recognizer` and `theta` bind the functions they call by name at import
time, so each layer is traced by replacing that name on the calling
module with a wrapper, and `Graph.__init__` is wrapped on the class.
Nothing under `src/` changes.

Each span's self time is its duration minus the time its child spans
cover.  Calls and self time are summed per layer as spans close; the
spans themselves are kept in memory only while `keep_spans` is set (the
first round) and written out at the end.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# (module, attribute, layer): every call site the traced pass wraps
CALL_SITES = (
    ("tperfect.recognizer", "find_claw", "recognizer.claw"),
    ("tperfect.recognizer", "recognize_line_graph", "linegraph"),
    ("tperfect.recognizer", "has_skewed_theta", "theta"),
    ("tperfect.recognizer", "blocks", "connectivity.blocks"),
    ("tperfect.recognizer", "is_three_connected", "connectivity.three_conn"),
    ("tperfect.recognizer", "find_two_separation", "connectivity.two_sep"),
    ("tperfect.recognizer", "is_isomorphic_small", "isomorphism"),
    ("tperfect.recognizer", "exists_induced_path_with_parity", "parity"),
    ("tperfect.theta", "triads", "theta.phase1.triads"),
    ("tperfect.theta", "flip", "theta.phase1.flip"),
    ("tperfect.theta", "decide_few_odd_edges", "theta.phase2"),
    ("tperfect.theta", "blocks", "connectivity.blocks"),
    ("tperfect.theta", "edge_disjoint_paths", "flow"),
    ("tperfect.theta", "exact_cut", "flow"),
    ("tperfect.theta", "fan_paths", "flow"),
    ("tperfect.theta", "min_edge_cut_between", "flow"),
    ("tperfect.theta", "vertex_disjoint_paths", "flow"),
    ("tperfect.theta", "find_two_disjoint_paths", "parity"),
    ("tperfect.theta", "has_two_disjoint_odd_cycles", "parity"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hits: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.keep_spans = True
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, layer: str, fn, count_hits: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[1]
                if self.keep_spans:
                    self.spans.append((span_id, parent, layer, start, end))
            if count_hits and result is not None:
                self.hits[layer] = self.hits.get(layer, 0) + 1
            return result

        return traced

    def install(self) -> None:
        import importlib

        from tperfect.core.graph import Graph

        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(layer, fn, count_hits=layer == "linegraph"))
        Graph.__init__ = self.wrap("graph.build", Graph.__init__)

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "summary": summary,
                    "spans": [
                        {"id": i, "parent": p, "layer": name, "start": s, "end": e}
                        for i, p, name, s, e in self.spans
                    ],
                },
                fh,
            )
