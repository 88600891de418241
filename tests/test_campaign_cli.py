"""End-to-end tests of the ``repro campaign`` CLI surface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.campaign import load_campaigns

FIXTURES = Path(__file__).parent / "fixtures"
#: The fixed ROADMAP delivery gap: its scenario now passes.
ROADMAP_FIXTURE = str(FIXTURES / "roadmap_delivery_gap.json")
#: One crash beyond K on the same schedule: fails by design.
FIXTURE = str(FIXTURES / "k_plus_one_takeover_loss.json")


def _run_fig17(tmp_path, *extra):
    # Small but complete campaign: fig17 single-crash space without the
    # random strata (they deduplicate away at K=1 anyway).
    return main(
        [
            "campaign", "run", "--paper", "fig17", "--method", "solution1",
            "--random-strata", "0", *extra,
        ]
    )


class TestCampaignRun:
    def test_paper_example_passes_with_full_coverage(self, tmp_path, capsys):
        assert _run_fig17(tmp_path) == 0
        text = capsys.readouterr().out
        assert "campaign coverage — paper:fig17 (solution1)" in text
        assert "100.0%" in text
        assert "verdicts by enumeration origin" in text
        assert "critical-instant" in text
        assert "failing scenarios" not in text

    def test_out_writes_loadable_schema_file(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert _run_fig17(tmp_path, "--out", str(out)) == 0
        results = load_campaigns(out)
        assert len(results) == 1
        assert results[0].label == "paper:fig17"
        assert results[0].all_passed
        assert results[0].coverage == 1.0
        raw = json.loads(out.read_text())
        assert raw["schema"] == "repro.obs.campaign/1"

    def test_html_report_is_written(self, tmp_path, capsys):
        page = tmp_path / "report.html"
        assert _run_fig17(tmp_path, "--html", str(page)) == 0
        html = page.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "all pass" in html

    def test_max_scenarios_reports_partial_coverage(self, tmp_path, capsys):
        assert _run_fig17(tmp_path, "--max-scenarios", "5") == 0
        text = capsys.readouterr().out
        assert "capped at 5 scenarios" in text
        assert "unexercised classes:" in text

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        assert _run_fig17(tmp_path, "--jobs", "0") == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["campaign", "run", "--suite", "nope"])
        assert code == 2
        assert "unknown campaign suite" in capsys.readouterr().err


class TestCampaignReproducer:
    def test_roadmap_reproducer_passes(self, capsys):
        code = main(["campaign", "run", "--repro", ROADMAP_FIXTURE])
        assert code == 0
        assert "-> pass (expected pass)" in capsys.readouterr().out

    def test_k_plus_one_reproducer_fails_and_prints_diagnosis(self, capsys):
        code = main(["campaign", "run", "--repro", FIXTURE])
        assert code == 1
        text = capsys.readouterr().out
        assert "-> fail (expected fail)" in text
        assert "poisoned availability: L1N2 never reached P1" in text
        assert text.count("watcher P3 on candidate P2") == 1

    def test_reproducer_artifacts_are_written(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        code = main(
            [
                "campaign", "run", "--repro", FIXTURE,
                "--artifacts", str(artifacts),
            ]
        )
        assert code == 1
        reproducers = list(artifacts.glob("*_fail0.json"))
        gantts = list(artifacts.glob("*_fail0_gantt.txt"))
        assert len(reproducers) == 1
        assert len(gantts) == 1
        replay = json.loads(reproducers[0].read_text())
        assert replay["schema"] == "repro.obs.campaign.reproducer/1"
        gantt = gantts[0].read_text()
        assert "note:" in gantt
        assert "poisoned availability" in gantt

    def test_missing_reproducer_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--repro", str(tmp_path / "absent.json")]
        )
        assert code == 2


class TestCampaignReport:
    def test_report_rerenders_saved_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert _run_fig17(tmp_path, "--out", str(out)) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "campaign coverage — paper:fig17 (solution1)" in text

    def test_report_writes_html(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        _run_fig17(tmp_path, "--out", str(out))
        page = tmp_path / "page.html"
        assert main(["campaign", "report", str(out), "--out", str(page)]) == 0
        assert "fault-injection campaign report" in page.read_text()

    def test_report_rejects_non_campaign_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/1"}')
        assert main(["campaign", "report", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err
