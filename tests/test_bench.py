"""Tests for :mod:`repro.obs.bench` — registry, runner, slices of
records, the record comparator and dashboard as ``repro bench`` uses
them, and the ``repro bench`` CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    all_scenarios,
    get_scenario,
    run_scenario,
    run_suite,
    scenarios_for_suite,
    suite_names,
)
from repro.obs.bench import registry as registry_module
from repro.obs.bench.registry import Scenario
from repro.obs.environment import environment_fingerprint
from repro.obs.ledger import (
    LEDGER_SCHEMA_ID,
    LedgerRecord,
    Metric,
    compare_records,
    load_slice,
    render_dashboard,
    save_slice,
)


def make_slice(values, suite="quick", created="2026-01-01T00:00:00Z"):
    """A hand-built slice: {scenario: {metric: Metric}} -> records."""
    stamp = created.replace("-", "").replace(":", "")
    return [
        LedgerRecord(
            run_id=f"{stamp}-{index:08d}",
            created=created,
            command="bench run",
            environment=environment_fingerprint(),
            suite=suite,
            scenario=scenario_name,
            metrics=dict(metrics),
        )
        for index, (scenario_name, metrics) in enumerate(values.items())
    ]


def row(records, scenario_name):
    return next(r for r in records if r.scenario == scenario_name)


@pytest.fixture
def broken_scenario(monkeypatch):
    """A registered quick-suite scenario that always raises."""
    name = "test.broken.scenario"

    def broken(obs):
        raise RuntimeError("boom")

    all_scenarios()  # register the builtins first
    monkeypatch.setitem(
        registry_module._REGISTRY, name,
        Scenario(name, "always raises", broken, suites=("quick",)),
    )
    return name


class TestMetricModel:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            Metric(1.0, direction="sideways")

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            Metric(1.0, kind="vibes")

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            Metric(1.0, noise=-0.1)

    def test_round_trips_through_dict(self):
        metric = Metric(9.4, unit="time", direction="exact", kind="quality",
                        noise=0.0)
        assert Metric.from_dict(metric.to_dict()) == metric


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = {s.name for s in all_scenarios()}
        assert "schedule.fig17.solution1" in names
        assert "montecarlo.fig17.availability" in names

    def test_quick_suite_nonempty_and_subset_of_full(self):
        quick = {s.name for s in scenarios_for_suite("quick")}
        full = {s.name for s in scenarios_for_suite("full")}
        assert quick and quick <= full

    def test_suite_names(self):
        assert {"quick", "full"} <= set(suite_names())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no.such.scenario")


class TestRunner:
    def test_fig17_scenario_reproduces_paper_makespan(self):
        run = run_scenario(get_scenario("schedule.fig17.solution1"))
        assert run.metrics["makespan"].value == pytest.approx(9.4)
        assert run.metrics["makespan"].direction == "exact"
        # Obs counters were collected per-scenario.
        assert run.metrics["pressure.evals"].kind == "counter"
        assert run.metrics["pressure.evals"].value > 0

    def test_wall_clock_metric_always_present(self):
        run = run_scenario(get_scenario("schedule.fig22.solution2"))
        assert run.metrics["wall_s"].kind == "timing"
        assert run.metrics["wall_s"].value > 0

    def test_repeat_keeps_best_wall(self):
        single = run_scenario(get_scenario("sim.fig18.crash_p2"), repeat=1)
        repeated = run_scenario(get_scenario("sim.fig18.crash_p2"), repeat=3)
        # Deterministic metrics identical; wall clock just has to exist.
        assert (
            repeated.metrics["response"].value
            == single.metrics["response"].value
        )

    def test_run_suite_snapshot_is_schema_valid(self):
        records = run_suite("quick", only=["fig17.solution1"])
        (record,) = records
        assert LedgerRecord.from_dict(record.to_dict()).to_dict() == (
            record.to_dict()
        )
        assert record.command == "bench run" and record.suite == "quick"
        assert record.scenario == "schedule.fig17.solution1"
        assert record.params == {"failures": 1}
        assert record.environment["python"]
        assert record.created and record.verdict == "ok"
        assert record.wall_s == record.metrics["wall_s"].value

    def test_run_suite_rejects_empty_selection(self):
        with pytest.raises(ValueError):
            run_suite("quick", only=["no-such-scenario"])

    def test_failing_scenario_warns_and_records_failed_entry(
        self, caplog, broken_scenario
    ):
        """One broken scenario must not lose the rest of the run."""
        with caplog.at_level("WARNING", logger="repro.obs.bench"):
            records = run_suite(
                "quick", only=[broken_scenario, "fig17.solution1"]
            )

        # The rest survived.
        assert row(records, "schedule.fig17.solution1").verdict == "ok"
        failed = row(records, broken_scenario)
        assert failed.verdict == "fail" and failed.exit_code == 1
        assert failed.error == "RuntimeError: boom"
        assert failed.metrics == {}
        assert any(
            "boom" in record.getMessage() for record in caplog.records
        )
        # The failed record still round-trips through the schema.
        assert LedgerRecord.from_dict(failed.to_dict()).error == failed.error


class TestSnapshotIO:
    """``BENCH_<suite>.jsonl`` slices: one JSON record per line."""

    def test_save_load_round_trip(self, tmp_path):
        records = make_slice(
            {"s": {"m": Metric(1.5, unit="time", direction="lower")},
             "t": {"n": Metric(3, direction="exact", kind="counter")}}
        )
        path = save_slice(records, tmp_path / "BENCH_quick.jsonl")
        loaded = load_slice(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
        assert row(loaded, "s").suite == "quick"
        assert row(loaded, "s").metrics["m"] == Metric(
            1.5, unit="time", direction="lower"
        )

    def test_schema_id_stamped(self, tmp_path):
        records = make_slice({"s": {"m": Metric(1.0)}, "t": {}})
        path = save_slice(records, tmp_path / "b.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["schema"] == LEDGER_SCHEMA_ID
                   for line in lines)
        # The same line format `repro runs query` prints.
        assert lines[0] == records[0].to_json_line()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(make_slice({"s": {}})[0].to_json_line() + "\n{nope\n")
        with pytest.raises(ValueError, match="bad.jsonl:2 is not valid JSON"):
            load_slice(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text(json.dumps({"schema": "other/9", "suite": "x"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_slice(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            load_slice(empty)

    def test_validate_reports_metric_problems(self, tmp_path):
        for entry, problem in (
            ({"value": "NaN-ish"}, "numeric value"),
            ({"value": 1.0, "direction": "up"}, "direction"),
            ({"value": 1.0, "kind": "vibes"}, "kind"),
            ({"value": 1.0, "noise": -1}, "noise"),
        ):
            data = make_slice({"s": {}})[0].to_dict()
            data["metrics"] = {"m": entry}
            path = tmp_path / "bad_metric.jsonl"
            path.write_text(json.dumps(data) + "\n")
            with pytest.raises(ValueError, match=f"metric 'm'.*{problem}"):
                load_slice(path)


class TestComparator:
    def base(self, **overrides):
        metrics = {
            "makespan": Metric(9.4, unit="time", direction="exact"),
            "avail": Metric(0.95, direction="higher", noise=0.01),
            "wall_s": Metric(0.5, unit="s", direction="lower",
                             kind="timing", noise=0.75),
        }
        metrics.update(overrides)
        return make_slice({"scn": metrics})

    def test_identical_snapshots_pass(self):
        report = compare_records(self.base(), self.base())
        assert report.gate() == 0
        assert not report.regressions

    def test_exact_metric_gates_in_both_directions(self):
        for drifted in (9.3, 9.5):
            report = compare_records(
                self.base(), self.base(makespan=Metric(drifted, unit="time",
                                                       direction="exact"))
            )
            assert report.gate() == 1
            assert report.regressions[0].metric == "makespan"

    def test_higher_is_better_regresses_downward_only(self):
        worse = compare_records(
            self.base(), self.base(avail=Metric(0.80, direction="higher",
                                                noise=0.01))
        )
        better = compare_records(
            self.base(), self.base(avail=Metric(0.99, direction="higher",
                                                noise=0.01))
        )
        assert worse.gate() == 1
        assert [d.verdict for d in better.deltas
                if d.metric == "avail"] == ["improved"]
        assert better.gate() == 0

    def test_noise_threshold_absorbs_small_drift(self):
        report = compare_records(
            self.base(), self.base(avail=Metric(0.9495, direction="higher",
                                                noise=0.01))
        )
        assert report.gate() == 0

    def test_noise_scale_loosens_the_gate(self):
        current = self.base(avail=Metric(0.93, direction="higher",
                                         noise=0.01))
        strict = compare_records(self.base(), current)
        loose = compare_records(self.base(), current, noise_scale=10.0)
        assert strict.gate() == 1 and loose.gate() == 0

    def test_timing_regression_gates_only_when_included(self):
        current = self.base(wall_s=Metric(5.0, unit="s", direction="lower",
                                          kind="timing", noise=0.75))
        with_timings = compare_records(self.base(), current)
        without = compare_records(self.base(), current,
                                    include_timings=False)
        assert with_timings.gate() == 1
        assert without.gate() == 0
        assert not any(d.metric == "wall_s" for d in without.deltas)

    def test_removed_metric_gates_unless_allowed(self):
        current = self.base()
        del row(current, "scn").metrics["avail"]
        report = compare_records(self.base(), current)
        assert report.removed and report.gate() == 1
        assert report.gate(fail_on_removed=False) == 0

    def test_added_metric_never_gates(self):
        current = self.base(extra=Metric(1.0))
        report = compare_records(self.base(), current)
        assert report.gate() == 0
        assert [d.verdict for d in report.deltas
                if d.metric == "extra"] == ["added"]

    def test_failed_scenario_gates_unless_it_failed_before(self):
        current = make_slice({"scn": {}})
        current[0].exit_code, current[0].error = 1, "RuntimeError: boom"
        report = compare_records(self.base(), current)
        assert report.failures == {"scn": "RuntimeError: boom"}
        assert report.gate(fail_on_removed=False) == 1
        assert compare_records(current, current).gate() == 0

    def test_regression_named_in_render(self):
        report = compare_records(
            self.base(), self.base(makespan=Metric(9.9, unit="time",
                                                   direction="exact"))
        )
        text = report.render()
        assert "REGRESSION" in text and "scn:makespan" in text


class TestDashboard:
    def series(self):
        return [
            make_slice(
                {"scn": {"makespan": Metric(9.4, direction="exact"),
                         "avail": Metric(0.94 + i * 0.01,
                                         direction="higher")}},
                created=f"2026-01-0{i + 1}T00:00:00Z",
            )
            for i in range(3)
        ]

    def test_sparkline_per_scenario(self):
        html = render_dashboard([r for s in self.series() for r in s])
        # One sparkline per metric of the scenario: makespan, avail and
        # the record's wall clock.
        assert html.count("<svg") == 3
        assert "scn" in html and "</html>" in html

    def test_single_snapshot_renders(self):
        html = render_dashboard(self.series()[0])
        assert "<svg" in html and "no comparison basis" in html

    def test_regression_badge_vs_previous(self):
        series = self.series()
        row(series[-1], "scn").metrics["makespan"] = Metric(
            99.0, direction="exact"
        )
        html = render_dashboard([r for s in series for r in s])
        assert "1 drifted metric(s) in the latest runs" in html
        assert 'class="badge regressed"' in html
        # A scenario that raised in the latest slice is drift too.
        failed = make_slice({"scn": {}}, created="2026-01-09T00:00:00Z")
        failed[0].exit_code, failed[0].error = 1, "RuntimeError: boom"
        html = render_dashboard([*self.series()[0], *failed])
        assert "drifted metric(s) in the latest runs" in html

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_dashboard([])


class TestBenchCli:
    def run_quick(self, tmp_path, name="BENCH_quick.jsonl"):
        out = tmp_path / name
        code = main([
            "bench", "run", "--suite", "quick",
            "--only", "fig17.solution1", "--out", str(out),
        ])
        assert code == 0
        return out

    def test_run_writes_schema_valid_snapshot(self, tmp_path, capsys):
        out = self.run_quick(tmp_path)
        (record,) = load_slice(out)
        assert record.scenario == "schedule.fig17.solution1"
        assert "wrote 1 scenario(s)" in capsys.readouterr().out

    def test_run_reports_a_failed_scenario(
        self, tmp_path, capsys, broken_scenario
    ):
        out = tmp_path / "BENCH_quick.jsonl"
        code = main([
            "bench", "run", "--suite", "quick", "--only", broken_scenario,
            "--only", "fig17.solution1", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "wrote 2 scenario(s)" in captured
        assert f"{broken_scenario}: FAILED (RuntimeError: boom)" in captured
        assert row(load_slice(out), broken_scenario).verdict == "fail"

    def test_compare_failed_scenario_gates_with_allow_removed(
        self, tmp_path, capsys
    ):
        baseline = save_slice(
            make_slice({"x": {"makespan": Metric(10.0, direction="exact")}}),
            tmp_path / "base.jsonl",
        )
        failed = make_slice({"x": {}})
        failed[0].exit_code, failed[0].error = 1, "RuntimeError: x raised"
        current = save_slice(failed, tmp_path / "cur.jsonl")
        for extra in ([], ["--allow-removed"]):
            code = main(["bench", "compare", str(baseline), str(current),
                         *extra])
            assert code == 1
            assert "x failed: RuntimeError: x raised" in (
                capsys.readouterr().out
            )

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        out = self.run_quick(tmp_path)
        code = main(["bench", "compare", str(out), str(out)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_perturbed_exits_nonzero_and_names_metric(
        self, tmp_path, capsys
    ):
        out = self.run_quick(tmp_path)
        data = json.loads(out.read_text())
        data["metrics"]["makespan"]["value"] = 11.0
        perturbed = tmp_path / "BENCH_perturbed.jsonl"
        perturbed.write_text(json.dumps(data) + "\n")
        code = main([
            "bench", "compare", str(out), str(perturbed), "--no-timings",
        ])
        assert code == 1
        captured = capsys.readouterr().out
        assert "REGRESSION" in captured and "makespan" in captured

    def test_compare_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(["bench", "compare", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_report_embeds_sparklines(self, tmp_path, capsys):
        out = self.run_quick(tmp_path)
        dashboard = tmp_path / "dash.html"
        code = main([
            "bench", "report", str(out), "--out", str(dashboard),
        ])
        assert code == 0
        html = dashboard.read_text()
        assert html.count("<svg") >= 1
        assert "schedule.fig17.solution1" in html

    def test_report_without_snapshots_is_clean_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "report"])
        assert code == 2
        assert "no slices" in capsys.readouterr().err

    def test_list_names_every_registered_scenario(self, capsys):
        code = main(["bench", "list"])
        assert code == 0
        captured = capsys.readouterr().out
        for scenario in all_scenarios():
            assert scenario.name in captured
