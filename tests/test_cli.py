import io
import json

import pytest
from conftest import cycle_blowup, split_family

from tperfect.cli import run_cli
from tperfect.core import (
    complete_graph,
    cycle_graph,
    squared_cycle,
    squared_cycle_minus_vertex,
)
from tperfect.io import graph_to_edge_list, graph_to_graph6
from tperfect.linegraph import line_graph


def run(argv):
    buf = io.StringIO()
    code = run_cli(argv, buf)
    return code, buf.getvalue()


def reports(text):
    return [json.loads(ln) for ln in text.splitlines() if ln.startswith("{")]


@pytest.fixture
def files(tmp_path):
    out = {}
    out["k4"] = tmp_path / "k4.g6"
    out["k4"].write_text(graph_to_graph6(complete_graph(4)) + "\n")
    out["good"] = tmp_path / "c7mv.el"
    out["good"].write_text(graph_to_edge_list(squared_cycle_minus_vertex(7)))
    out["claw"] = tmp_path / "claw.el"
    out["claw"].write_text("4 3\n0 1\n0 2\n0 3\n")
    out["oct"] = tmp_path / "oct.g6"
    out["oct"].write_text(graph_to_graph6(line_graph(complete_graph(4))[0]) + "\n")
    out["theta"] = tmp_path / "theta.el"
    out["theta"].write_text("5 6\n0 2\n2 1\n0 3\n3 4\n4 1\n0 1\n")
    return {k: str(v) for k, v in out.items()}


class TestExitCodes:
    def test_recognize_not_t_perfect(self, files):
        code, text = run(["recognize", files["k4"]])
        assert code == 1
        assert reports(text)[0]["result"]["verdict"] == "not-t-perfect"

    def test_recognize_t_perfect(self, files):
        code, text = run(["recognize", files["good"]])
        assert code == 0
        assert reports(text)[0]["result"]["verdict"] == "t-perfect"

    def test_claw_input_error(self, files):
        code, text = run(["recognize", files["claw"]])
        assert code == 2
        assert reports(text)[0]["result"]["error"] == "not-claw-free"

    def test_usage_error(self):
        code, _ = run(["recognize"])
        assert code == 64
        code, _ = run(["definitely-not-a-command"])
        assert code == 64

    def test_removed_options_are_usage_errors(self, files):
        for argv in (
            ["recognize", files["good"], "--parity-backend", "exhaustive"],
            ["skewed-theta", files["theta"], "--parity-backend", "exhaustive"],
            ["corpus-check", "--samples", "1", "--parity-backend", "exhaustive"],
            ["skewed-theta", files["theta"], "--max-exhaustive-n", "30"],
            ["corpus-check", "--max-exhaustive-n", "30"],
        ):
            code, text = run(argv)
            assert code == 64 and text == "", argv

    def test_missing_file(self):
        code, _ = run(["recognize", "/nonexistent/path.g6"])
        assert code == 2

    def test_stdin_with_format(self, files, monkeypatch):
        with open(files["good"]) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        code, text = run(["recognize", "-", "--format", "edge-list"])
        assert code == 0
        (rec,) = reports(text)
        assert rec["input"] == {"name": "<stdin>", "n": 6, "m": 10}
        assert rec["config"]["format"] == "edge-list"
        assert rec["result"]["verdict"] == "t-perfect"

    def test_format_that_cannot_be_inferred(self, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text(graph_to_graph6(complete_graph(4)) + "\n")
        code, text = run(["recognize", str(p)])
        assert code == 2
        assert json.loads(text) == {
            "error": f"cannot infer format of {str(p)!r}; pass --format"
        }
        code, text = run(["recognize", str(p), "--format", "graph6"])
        assert code == 1
        assert reports(text)[0]["result"]["verdict"] == "not-t-perfect"

    def test_blank_graph6_file(self, tmp_path):
        p = tmp_path / "blank.g6"
        p.write_text("\n  \n\n")
        code, text = run(["recognize", str(p)])
        assert code == 2
        assert json.loads(text) == {"error": "no graphs in input"}

    def test_empty_edge_list_file(self, tmp_path):
        p = tmp_path / "empty.el"
        p.write_text("")
        code, text = run(["recognize", str(p)])
        assert code == 2
        (rec,) = reports(text)
        assert rec["input"] == {"name": str(p), "n": None, "m": None}
        assert rec["result"] == {
            "error": "input-error",
            "message": "empty edge-list payload",
        }

    def test_directory_is_an_input_error(self, tmp_path):
        code, text = run(["recognize", str(tmp_path), "--format", "graph6"])
        assert code == 2
        (rec,) = [json.loads(ln) for ln in text.splitlines()]
        assert rec["error"].startswith(f"cannot read {str(tmp_path)!r}")

    def test_non_utf8_file_is_an_input_error(self, tmp_path):
        p = tmp_path / "latin1.g6"
        p.write_bytes(b"Bw\n\xe9\n")
        code, text = run(["recognize", str(p)])
        assert code == 2
        (rec,) = [json.loads(ln) for ln in text.splitlines()]
        assert rec["error"].startswith(f"cannot read {str(p)!r}")
        assert "utf-8" in rec["error"]

    def test_line_root_takes_no_trace_option(self, files):
        code, text = run(["line-root", files["oct"], "--trace"])
        assert code == 64 and text == ""
        code, text = run(["line-root", files["oct"]])
        assert code == 0 and reports(text)[0]["config"] == {"format": None}

    def test_skewed_theta_polarity(self, files):
        code, text = run(["skewed-theta", files["theta"]])
        assert code == 1
        assert reports(text)[0]["result"]["outcome"] == "contains-skewed-theta"
        code, _ = run(["skewed-theta", files["claw"]])
        assert code == 0

    def test_skewed_theta_trace(self, files, tmp_path):
        # a bipartite input answers with the one-entry `bipartite` rule
        p = tmp_path / "c6.g6"
        p.write_text(graph_to_graph6(cycle_graph(6)) + "\n")
        code, text = run(["skewed-theta", str(p), "--trace"])
        assert code == 0
        assert reports(text)[0]["result"] == {
            "outcome": "no-skewed-theta",
            "trace": [["bipartite", {"n": 6, "m": 6}]],
        }
        code, text = run(["skewed-theta", files["theta"], "--trace"])
        assert code == 1
        assert reports(text)[0]["result"]["trace"] == [
            ["block", {"vertices": [0, 1, 2, 3, 4]}],
            ["opposite-side-branch-pair", {"pair": [0, 1]}],
        ]

    def test_two_odd_split_past_the_old_linkage_cap(self, tmp_path):
        # G_3 and its 86-vertex line graph reach the two-odd-edge split
        # with sides larger than the exhaustive 2-linkage's 64-vertex cap
        root = split_family(3)
        p = tmp_path / "g3.g6"
        p.write_text(graph_to_graph6(root) + "\n")
        code, text = run(["skewed-theta", str(p)])
        assert code == 0
        assert reports(text)[0]["result"]["outcome"] == "no-skewed-theta"
        p.write_text(graph_to_graph6(line_graph(root)[0]) + "\n")
        code, text = run(["recognize", str(p)])
        assert code == 0
        assert reports(text)[0]["result"]["verdict"] == "t-perfect"

    def test_skewed_theta_rejects_dense(self, files):
        code, text = run(["skewed-theta", files["oct"]])
        assert code == 2

    def test_line_root(self, files):
        code, text = run(["line-root", files["oct"]])
        assert code == 0
        rep = reports(text)[0]
        assert rep["result"]["is_line_graph"]
        assert rep["result"]["root_graph6"] == graph_to_graph6(complete_graph(4))
        code, _ = run(["line-root", files["claw"]])
        assert code == 1

    def test_oracle_t_perfect_cycle(self, tmp_path):
        p = tmp_path / "c5.el"
        p.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, text = run(["oracle", str(p), "--question", "tperfect"])
        assert code == 0 and reports(text)[0]["result"]["answer"] is True

    def test_oracle_questions(self, files):
        code, text = run(["oracle", files["k4"], "--question", "tperfect"])
        assert code == 1 and reports(text)[0]["result"]["answer"] is False
        code, text = run(["oracle", files["theta"], "--question", "theta"])
        assert code == 1 and reports(text)[0]["result"]["answer"] is True
        code, text = run(["oracle", files["k4"], "--question", "prism"])
        assert code == 1 and reports(text)[0]["result"]["answer"] is True
        code, _ = run(["oracle", files["claw"], "--question", "tperfect"])
        assert code == 2


class TestGen:
    def test_named_corpus(self):
        code, text = run(["gen", "--kind", "named"])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 8
        assert lines[0] == graph_to_graph6(complete_graph(4))

    def test_seeded_stability(self):
        a = run(["gen", "--kind", "random-subcubic", "--count", "20", "--seed", "9"])
        b = run(["gen", "--kind", "random-subcubic", "--count", "20", "--seed", "9"])
        assert a == b


class TestEmptySizeRange:
    """An empty or negative size range is an input error (exit 2, JSON
    error), not a hang or a traceback."""

    def check_input_error(self, argv):
        code, text = run(argv)
        assert code == 2
        assert "size range" in json.loads(text)["error"]

    def test_gen_clawfree_empty_range(self):
        self.check_input_error(
            ["gen", "--kind", "random-clawfree-via-linegraph", "--min-n", "9", "--max-n", "7"]
        )

    def test_gen_subcubic_empty_range(self):
        self.check_input_error(
            ["gen", "--kind", "random-subcubic", "--min-n", "9", "--max-n", "5"]
        )

    def test_corpus_check_below_its_smallest_size(self):
        # corpus-check draws line graphs with at least 4 vertices
        self.check_input_error(["corpus-check", "--max-n", "3"])


class TestDeterminism:
    def test_reports_identical_minus_timing(self, files):
        outs = []
        for _ in range(3):
            _, text = run(["recognize", files["good"], "--trace"])
            recs = reports(text)
            for r in recs:
                r.pop("timing_ms")
            outs.append(json.dumps(recs, sort_keys=True))
        assert outs[0] == outs[1] == outs[2]


class TestCorpusCheck:
    def test_summary_and_agreement(self):
        buf = io.StringIO()
        code = run_cli(["corpus-check", "--samples", "8", "--seed", "4", "--max-n", "10"], buf)
        text = buf.getvalue()
        assert code == 0
        recs = reports(text)
        assert len(recs) == 8
        assert all(r["result"]["agree"] for r in recs)
        summary = [ln for ln in text.splitlines() if ln.startswith("#")][0]
        assert "agree=8" in summary and "disagree=0" in summary
        # summary equals a recount of the per-instance records
        t_perfect = sum(1 for r in recs if r["result"]["recognizer"] == "t-perfect")
        assert f"t-perfect={t_perfect}" in summary

    def test_refused_samples_are_reported_and_the_sweep_goes_on(self):
        # past 12 vertices the closure oracle refuses a sample; it gets its
        # own record and the other samples are still compared
        code, text = run(["corpus-check", "--samples", "20", "--seed", "1", "--max-n", "14"])
        assert code == 2
        recs = reports(text)
        assert [r["input"]["name"] for r in recs] == [f"sample[{i}]" for i in range(20)]
        refused = [r for r in recs if "error" in r["result"]]
        assert refused and all(r["result"]["error"] == "size-guard" for r in refused)
        assert all(r["input"]["n"] > 12 for r in refused)
        compared = [r for r in recs if "agree" in r["result"]]
        assert len(compared) + len(refused) == 20 and all(r["result"]["agree"] for r in compared)
        summary = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert summary == [
            f"# corpus-check samples=20 agree={len(compared)} disagree=0 "
            f"refused={len(refused)} "
            f"t-perfect={sum(r['result']['recognizer'] == 't-perfect' for r in compared)} "
            f"not-t-perfect={sum(r['result']['recognizer'] != 't-perfect' for r in compared)}"
        ]

    def test_multi_graph_file_exit_code_is_worst(self, tmp_path):
        p = tmp_path / "mixed.g6"
        p.write_text(
            graph_to_graph6(squared_cycle_minus_vertex(7))
            + "\n"
            + graph_to_graph6(complete_graph(4))
            + "\n"
        )
        code, text = run(["recognize", str(p)])
        assert code == 1
        assert len(reports(text)) == 2


class TestErrorIsolation:
    def test_size_guard_is_reported_per_graph(self, tmp_path):
        # the middle graph trips the induced-path size guard; the graphs on
        # either side of it are still reported
        p = tmp_path / "guarded.g6"
        graphs = [
            squared_cycle(7),
            cycle_blowup([1] * 10 + [2] + [1] * 10 + [2]),
            squared_cycle(10),
        ]
        p.write_text("".join(graph_to_graph6(g) + "\n" for g in graphs))
        code, text = run(["recognize", str(p)])
        recs = reports(text)
        assert code == 2
        assert [r["input"]["name"] for r in recs] == [f"{p}[{i}]" for i in range(3)]
        assert recs[0]["result"]["verdict"] == "not-t-perfect"
        assert recs[1]["result"]["error"] == "size-guard"
        assert "exceeds cap 20" in recs[1]["result"]["message"]
        assert recs[2]["result"]["verdict"] == "not-t-perfect"

    def test_max_exhaustive_n_lifts_the_induced_path_cap(self, tmp_path):
        # the 24-vertex blow-up makes a parity query on 23 vertices
        p = tmp_path / "blowup.g6"
        p.write_text(graph_to_graph6(cycle_blowup([1] * 10 + [2] + [1] * 10 + [2])) + "\n")
        code, text = run(["recognize", str(p)])
        (rec,) = reports(text)
        assert code == 2 and rec["result"]["error"] == "size-guard"
        assert rec["config"]["max_exhaustive_n"] == 20
        code, text = run(["recognize", str(p), "--max-exhaustive-n", "30"])
        (rec,) = reports(text)
        assert code == 0 and rec["result"]["verdict"] == "t-perfect"
        assert rec["config"] == {"format": None, "max_exhaustive_n": 30, "trace": False}

    def test_skewed_theta_reports_input_error_per_graph(self, tmp_path):
        p = tmp_path / "dense.g6"
        p.write_text(
            graph_to_graph6(line_graph(complete_graph(4))[0]) + "\n"
            + graph_to_graph6(cycle_graph(5)) + "\n"
        )
        code, text = run(["skewed-theta", str(p)])
        recs = reports(text)
        assert code == 2
        assert [r["input"]["name"] for r in recs] == [f"{p}[0]", f"{p}[1]"]
        assert recs[0]["result"]["error"] == "input-error"
        assert "outcome" in recs[1]["result"]

    def test_malformed_graph6_line_is_reported_per_graph(self, tmp_path):
        # the bad middle line gets its own report; both graphs around it
        # are still decided
        p = tmp_path / "bad-line.g6"
        p.write_text("Bw\n!!bad\nBw\n")
        code, text = run(["recognize", str(p)])
        recs = reports(text)
        assert code == 2
        assert [r["input"]["name"] for r in recs] == [f"{p}[{i}]" for i in range(3)]
        assert recs[0]["result"]["verdict"] == "t-perfect"
        assert recs[1]["result"] == {
            "error": "input-error",
            "message": "bad graph6 header byte '!'",
        }
        assert recs[2]["result"]["verdict"] == "t-perfect"
