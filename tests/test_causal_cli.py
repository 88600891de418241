"""End-to-end tests of ``repro causal`` and ``repro explain --diff``.

Also covers the explain rendering fix for schedules with zero
inter-processor messages (single-processor problems must get a clean
"communications: none" line, not a blank or confusing section).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs import (
    AlgorithmGraph,
    Problem,
    fully_connected_architecture,
)
from repro.graphs.constraints import CommunicationTable, ExecutionTable
from repro.graphs.io import save_problem
from repro.obs.causal import SCHEMA_ID, load_report

FIXTURE = str(
    Path(__file__).parent / "fixtures" / "k_plus_one_takeover_loss.json"
)


@pytest.fixture
def solo_file(tmp_path):
    """A single-processor problem: no frames, no timeout ladders."""
    graph = AlgorithmGraph("solo")
    graph.add_input("I")
    graph.add_comp("A")
    graph.add_output("O")
    graph.add_dependency("I", "A", 1.0)
    graph.add_dependency("A", "O", 1.0)
    problem = Problem(
        graph,
        fully_connected_architecture(["P1"]),
        ExecutionTable({(op, "P1"): 1.0 for op in ("I", "A", "O")}),
        CommunicationTable({}),
        failures=0,
        name="solo",
    )
    path = tmp_path / "solo.json"
    save_problem(problem, path)
    return str(path)


class TestCausalCommand:
    def test_nominal_paper_example(self, capsys):
        assert main(["causal", "--paper", "fig17"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "latency breakdown" in out
        assert "makespan 9.4" in out
        # Nominal run: no fault-cost or diff sections.
        assert "fault cost" not in out
        assert "trace diff" not in out

    def test_crash_adds_fault_cost_and_diff(self, capsys):
        code = main(["causal", "--paper", "fig17", "--crash", "P2@3.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault cost vs nominal" in out
        assert "crash of P2" in out
        assert "timeout-wait" in out
        assert "trace diff: nominal vs" in out
        assert "first divergence" in out

    def test_multiple_crash_flags_compose(self, capsys):
        code = main([
            "causal", "--paper", "fig17",
            "--crash", "P2@3.0", "--crash", "P3@5.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace diff" in out

    def test_json_and_artifact_roundtrip(self, tmp_path, capsys):
        artifact = tmp_path / "causal.json"
        code = main([
            "causal", "--paper", "fig17", "--crash", "P2@3.0",
            "--json", "--out", str(artifact),
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["schema"] == SCHEMA_ID
        segments = payload["critical_path"]["segments"]
        total = sum(s["end"] - s["start"] for s in segments)
        assert total == pytest.approx(payload["makespan"])
        loaded = load_report(artifact)
        assert loaded["schema"] == SCHEMA_ID

    def test_gantt_overlay(self, capsys):
        code = main(["causal", "--paper", "fig17", "--gantt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "^" in out
        assert "critical path:" in out

    def test_full_includes_slack_table(self, capsys):
        assert main(["causal", "--paper", "fig17", "--full"]) == 0
        out = capsys.readouterr().out
        assert "per-event local slack" in out

    def test_repro_replay_names_the_lost_frame(self, capsys):
        assert main(["causal", "--repro", FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out
        assert "first fatal divergence" in out
        assert "L1N2" in out
        assert "takeover frame was lost" in out

    def test_bad_repro_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["causal", "--repro", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_processor_is_an_error(self, capsys):
        code = main([
            "causal", "--paper", "fig17", "--crash", "NOPE@3.0",
        ])
        assert code == 2
        assert "bad crash spec" in capsys.readouterr().err


class TestExplainDiff:
    def test_nominal_vs_crash(self, capsys):
        code = main([
            "explain", "--paper", "fig17", "--diff", "none", "P2@3.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace diff: " in out
        assert "first divergence" in out

    def test_multi_crash_spec(self, capsys):
        code = main([
            "explain", "--paper", "fig17",
            "--diff", "none", "P2@3.0,P3@5.0",
        ])
        assert code == 0
        assert "trace diff" in capsys.readouterr().out

    def test_self_diff_is_identical(self, capsys):
        code = main([
            "explain", "--paper", "fig17", "--diff", "none", "none",
        ])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_bad_spec_is_an_error(self, capsys):
        code = main([
            "explain", "--paper", "fig17", "--diff", "none", "P2@oops",
        ])
        assert code == 2
        assert "bad crash spec" in capsys.readouterr().err

    def test_unknown_processor_is_an_error(self, capsys):
        code = main([
            "explain", "--paper", "fig17", "--diff", "none", "NOPE",
        ])
        assert code == 2
        assert "bad crash spec" in capsys.readouterr().err


class TestExplainCommSection:
    def test_solo_problem_renders_clean_empty_comm_line(
        self, solo_file, capsys
    ):
        assert main(["explain", solo_file]) == 0
        out = capsys.readouterr().out
        assert "communications: none" in out
        assert "processor-local" in out
        assert "no timeout table" in out

    def test_paper_example_counts_messages(self, capsys):
        assert main(["explain", "--paper", "fig17"]) == 0
        out = capsys.readouterr().out
        assert "inter-processor message(s)" in out
        assert "timeout-table line(s)" in out
