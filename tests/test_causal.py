"""Causal trace graphs, critical-path attribution, and trace diffing.

Core invariants (checked on the paper examples *and* a sweep of
seeded random problems):

* the causal graph is acyclic (every edge points forward in time);
* the critical path is a contiguous partition of ``[0, makespan]``
  whose segments sum exactly (tolerance-aware) to the simulated
  makespan, and the per-category breakdown sums to the same total;
* per-event local slack is never negative;
* diffing a trace against an identically-simulated run is empty.

Plus a failure by design, one crash beyond K (the K+1 takeover-loss
reproducer): the differ must name the last lost takeover frame (P3's,
after P2's was lost too) as the first fatal divergence, and the
campaign diagnoser must surface it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core import schedule_solution1, schedule_solution2
from repro.core.executive_plan import DEADLINE_SLACK
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.obs.campaign import (
    CampaignScenario,
    diagnose,
    execute_scenario,
    load_reproducer,
    problem_from_spec,
    scenario_from_dict,
)
from repro.obs.causal import (
    SCHEMA_ID,
    analyze_trace,
    attribute_critical_path,
    attribute_fault_cost,
    build_causal_graph,
    critical_overlay,
    diff_traces,
    ladder_states,
    load_report,
    save_report,
)
from repro.obs.runtime import instrumented
from repro.sim import FailureScenario, simulate
from repro.sim.values import reference_outputs

FIXTURE = Path(__file__).parent / "fixtures" / "k_plus_one_takeover_loss.json"

TOL = 1e-6


def _check_invariants(schedule, scenario):
    """The full causal-invariant battery for one simulated iteration."""
    trace = simulate(schedule, scenario)
    graph = build_causal_graph(trace, schedule)

    # Acyclic: the topological sort must cover every node.
    order = graph.topological_order()
    assert len(order) == len(graph.nodes)

    # Every edge points forward in time.
    for edge in graph.edges:
        src, dst = graph.nodes[edge.src], graph.nodes[edge.dst]
        assert src.end <= dst.start + TOL, (edge, src, dst)

    path = attribute_critical_path(graph, trace, schedule)

    # The path partitions [0, makespan]: contiguous, and the segment
    # sum telescopes exactly to the simulated makespan.
    assert path.segments, "non-empty trace must yield a critical path"
    assert abs(path.segments[0].start) < TOL
    for earlier, later in zip(path.segments, path.segments[1:]):
        assert abs(earlier.end - later.start) < TOL
    assert abs(path.total - trace.makespan) < TOL
    assert abs(path.segments[-1].end - trace.makespan) < TOL

    # The per-category breakdown is a partition of the same total.
    assert abs(sum(path.breakdown.values()) - trace.makespan) < TOL

    # Local slack is never negative.
    for value in graph.slack(trace.makespan).values():
        assert value >= 0.0

    return trace, graph, path


class TestInvariantsOnPaperExamples:
    def test_fig17_nominal(self, bus_solution1):
        _check_invariants(bus_solution1.schedule, FailureScenario.none())

    def test_fig17_transient_crash(self, bus_solution1):
        _check_invariants(
            bus_solution1.schedule, FailureScenario.crash("P2", 3.0)
        )

    def test_fig17_dead_from_start(self, bus_solution1):
        _check_invariants(
            bus_solution1.schedule, FailureScenario.dead_from_start("P2")
        )

    def test_fig22_nominal(self, p2p_solution2):
        _check_invariants(p2p_solution2.schedule, FailureScenario.none())

    def test_fig22_crash(self, p2p_solution2):
        _check_invariants(
            p2p_solution2.schedule, FailureScenario.crash("P2", 3.0)
        )


class TestInvariantsOnRandomProblems:
    """The sweep: >= 20 seeded problems, nominal and crashed."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bus_solution1(self, seed):
        problem = random_bus_problem(
            operations=10, processors=4, failures=1, seed=seed
        )
        schedule = schedule_solution1(problem).schedule
        _check_invariants(schedule, FailureScenario.none())
        victim = problem.architecture.processor_names[seed % 4]
        _check_invariants(
            schedule,
            FailureScenario.crash(victim, schedule.makespan * 0.3),
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_p2p_solution2(self, seed):
        problem = random_p2p_problem(
            operations=10, processors=4, failures=1, seed=seed
        )
        schedule = schedule_solution2(problem).schedule
        _check_invariants(schedule, FailureScenario.none())
        victim = problem.architecture.processor_names[seed % 4]
        _check_invariants(
            schedule,
            FailureScenario.crash(victim, schedule.makespan * 0.3),
        )


class TestSelfDiff:
    def test_identical_runs_diff_empty(self, bus_solution1):
        schedule = bus_solution1.schedule
        first = simulate(schedule, FailureScenario.none())
        second = simulate(schedule, FailureScenario.none())
        diff = diff_traces(first, second, schedule)
        assert diff.identical
        assert diff.events == []
        assert diff.poisoned == []
        assert diff.fatal is None
        assert "identical" in diff.render()

    def test_identical_crashed_runs_diff_empty(self, bus_solution1):
        schedule = bus_solution1.schedule
        scenario = FailureScenario.crash("P2", 3.0)
        first = simulate(schedule, scenario)
        second = simulate(schedule, scenario)
        diff = diff_traces(first, second, schedule, scenario)
        assert diff.identical and not diff.events


class TestFaultCost:
    def test_fig17_crash_attributes_timeout_to_suspect(self, bus_solution1):
        schedule = bus_solution1.schedule
        scenario = FailureScenario.crash("P2", 3.0)
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        graph = build_causal_graph(faulty, schedule)
        path = attribute_critical_path(graph, faulty, schedule)
        cost = attribute_fault_cost(graph, path, nominal, schedule, scenario)
        assert cost.delta == pytest.approx(
            faulty.makespan - nominal.makespan
        )
        # The takeover wait and resend both bill to the crashed P2.
        assert cost.per_suspect.get("P2", 0.0) > 0.0
        assert cost.takeover_comm.get("P2", 0.0) > 0.0

    def test_fig22_active_replication_has_no_timeout_cost(
        self, p2p_solution2
    ):
        schedule = p2p_solution2.schedule
        scenario = FailureScenario.crash("P2", 3.0)
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        graph = build_causal_graph(faulty, schedule)
        path = attribute_critical_path(graph, faulty, schedule)
        cost = attribute_fault_cost(graph, path, nominal, schedule, scenario)
        # Solution 2 is actively replicated: no watchdogs, no waits.
        assert cost.per_suspect == {}
        assert "timeout-wait" not in path.breakdown or (
            path.breakdown.get("timeout-wait", 0.0) == 0.0
        )


class TestDeliveryGapDivergence:
    """The K+1 reproducer's differ verdict: P4 dies early, and both
    takeover frames for (L1N2, L2N0), P2's and then P3's, are lost
    mid-transmission, so survivor L2N0@P1 starves."""

    @pytest.fixture(scope="class")
    def gap(self):
        repro = load_reproducer(FIXTURE)
        problem = problem_from_spec(repro["problem"])
        scenario = scenario_from_dict(repro["scenario"])
        schedule = schedule_solution1(problem).schedule
        return schedule, scenario

    def test_differ_names_the_lost_takeover_frame(self, gap):
        schedule, scenario = gap
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        diff = diff_traces(nominal, faulty, schedule, scenario)
        assert not diff.identical
        assert diff.fatal is not None
        # The root cause: the last delivery attempt, the (L1N2, L2N0)
        # takeover frame P3 dispatched towards P1, was lost
        # mid-transmission.
        assert diff.fatal.op == "L1N2"
        assert diff.fatal.processor == "P1"
        assert diff.fatal.event.kind == "lost"
        assert "L1N2->L2N0 P3" in diff.fatal.event.describe()
        # ... and the forensics: P3's rank-1 rung fired on P2.
        fired = [
            entry for entry in diff.fatal.ladder
            if entry.watcher == "P3" and entry.state == "fired"
        ]
        assert fired, diff.fatal.ladder
        rendered = diff.render()
        assert "first fatal divergence" in rendered
        assert "takeover frame was lost" in rendered

    def test_incomplete_iteration_bills_no_fault_cost(self, gap):
        """An iteration that never produced its outputs has no response
        time, so the report carries the diff but no fault cost."""
        schedule, scenario = gap
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        report = analyze_trace(faulty, schedule, scenario, nominal=nominal)
        assert not report.completed
        assert report.fault_cost is None
        assert report.diff is not None and report.diff.fatal is not None
        assert report.to_dict()["fault_cost"] is None
        text = report.render()
        assert "INCOMPLETE" in text
        assert "fault cost" not in text

    def test_diagnosis_ladder_is_the_differs_ladder(self, gap):
        """One account: the campaign diagnosis is the differ's, and it
        tells each rung, lost frame and starved input once."""
        schedule, scenario = gap
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        diff = diff_traces(nominal, faulty, schedule, scenario)
        diagnosis = diagnose(faulty, schedule, scenario)
        assert diagnosis.divergence.to_dict() == diff.to_dict()
        assert [
            (e.watcher, e.candidate, e.rank, e.state) for e in diff.fatal.ladder
        ] == [
            ("P2", "P4", 0, "skipped"),
            ("P3", "P4", 0, "skipped"),
            ("P3", "P2", 1, "fired"),
        ]
        # The skip names the message whose detection set the fail flag.
        assert "(for 'L0N0')" in diff.fatal.ladder[0].detail
        # Every replica of the starved input, with its crash date.
        (l1n2,) = [p for p in diff.poisoned if p.op == "L1N2"]
        assert [(s.processor, s.status) for s in l1n2.senders] == [
            ("P4", "crashed at 2.031 before producing"),
            ("P2", "produced at 9.75; takeover frame lost mid-transmission "
                   "(P2 crashed at 15.09)"),
            ("P3", "produced at 11.122; takeover frame lost "
                   "mid-transmission (P3 crashed at 18.5)"),
        ]
        text = diagnosis.render()
        assert text.startswith(
            f"scenario {scenario}: iteration INCOMPLETE — outputs never "
            "produced: L3N0, L3N1"
        )
        assert text.count("takeover frame lost mid-transmission") == 2
        for rung in diff.fatal.ladder:
            assert text.count(rung.describe()) == 1
        for frame in faulty.frames:
            if not frame.delivered:
                assert text.count(str(frame)) == 1
        assert text.count("poisoned availability: L1N2 never reached P1") == 1
        # The outputs blocked behind the starved replica on P1.
        for op in ("L3N0", "L3N1"):
            assert f"{op}@P1 (replica #1): never produced (itself starved)" in text

    def test_frontier_is_the_unreproduced_value_cone(self, gap):
        schedule, scenario = gap
        nominal = simulate(schedule, FailureScenario.none())
        faulty = simulate(schedule, scenario)
        diff = diff_traces(nominal, faulty, schedule, scenario)
        assert diff.fatal is not None and diff.fatal.frontier
        # The starved consumer itself is in the poisoned cone.
        assert any("L2N0@P1" in line for line in diff.fatal.frontier)

    def test_campaign_diagnoser_surfaces_the_divergence(self, gap):
        schedule, scenario = gap
        repro = load_reproducer(FIXTURE)
        outcome = execute_scenario(
            schedule,
            CampaignScenario(scenario=scenario, key=(), origin="pinned"),
            reference_outputs(schedule.problem.algorithm),
            minimize=False,
        )
        assert outcome.status == "fail"
        assert outcome.diagnosis is not None
        text = outcome.diagnosis["text"]
        assert "first fatal divergence" in text
        assert "L1N2" in text and "takeover frame was lost" in text
        assert outcome.diagnosis["data"]["divergence"] is not None
        assert repro["expect"] == "fail"

    def test_analysis_reproduces_makespan_exactly(self, gap):
        schedule, scenario = gap
        trace, _graph, path = _check_invariants(schedule, scenario)
        assert not trace.completed
        assert abs(path.total - trace.makespan) < TOL


class TestStandDownCause:
    """A rung that stood down names the observe the protocol recorded:
    the frame that completed on an observable link by its deadline,
    not the first frame dispatched before it (which may be lost)."""

    @pytest.fixture(scope="class")
    def schedule(self):
        problem = random_bus_problem(10, 4, failures=2, seed=0)
        return schedule_solution1(problem).schedule

    def test_rung_names_the_takeover_frame_it_stood_down_on(self, schedule):
        scenario = FailureScenario.crash("P4", 2.533)
        faulty = simulate(schedule, scenario)
        assert faulty.completed
        (rung,) = [
            r for r in ladder_states(("L0N0", "L1N1"), faulty, schedule, scenario)
            if r.watcher == "P2" and r.rank == 1
        ]
        assert (rung.candidate, rung.deadline) == ("P3", pytest.approx(6.489))
        assert rung.state == "stood-down"
        sender, date = rung.observed
        assert (sender, date) == ("P3", pytest.approx(4.862))
        assert "observed P3's frame, completed at 4.862" in rung.detail

    def test_every_stand_down_names_a_frame_completed_by_the_deadline(
        self, schedule
    ):
        nominal = simulate(schedule, FailureScenario.none())
        deps = sorted({key[1] for key in schedule.executive_plan.ladders})
        stood_down = 0
        for frame in nominal.frames:
            scenario = FailureScenario.crash(
                frame.sender, (frame.start + frame.end) / 2
            )
            faulty = simulate(schedule, scenario)
            for dep in deps:
                for rung in ladder_states(dep, faulty, schedule, scenario):
                    if rung.state != "stood-down":
                        continue
                    stood_down += 1
                    sender, date = rung.observed
                    assert date <= rung.deadline + DEADLINE_SLACK, rung
                    assert any(
                        f.delivered and f.dependency == dep
                        and f.sender == sender and f.end == date
                        for f in faulty.frames
                    ), rung
        assert stood_down


class TestDiagnoseWiring:
    def test_diagnose_without_nominal_simulates_it(self, bus_solution1):
        schedule = bus_solution1.schedule
        scenario = FailureScenario.dead_from_start("P1")
        trace = simulate(schedule, scenario)
        nominal = simulate(schedule, FailureScenario.none())
        report = diagnose(trace, schedule, scenario)
        given = diagnose(trace, schedule, scenario, nominal=nominal)
        assert report.to_dict() == given.to_dict()
        assert not report.divergence.identical

    def test_diagnose_with_nominal_attaches_divergence(self, bus_solution1):
        schedule = bus_solution1.schedule
        scenario = FailureScenario.crash("P2", 3.0)
        nominal = simulate(schedule, FailureScenario.none())
        trace = simulate(schedule, scenario)
        report = diagnose(trace, schedule, scenario, nominal=nominal)
        assert report.divergence is not None
        assert not report.divergence.identical
        assert report.to_dict()["divergence"]["events"]


class TestReportArtifact:
    def test_analyze_save_load_roundtrip(self, bus_solution1, tmp_path):
        schedule = bus_solution1.schedule
        scenario = FailureScenario.crash("P2", 3.0)
        nominal = simulate(schedule, FailureScenario.none())
        trace = simulate(schedule, scenario)
        report = analyze_trace(
            trace, schedule, scenario=scenario, nominal=nominal,
            method="solution1",
        )
        out = tmp_path / "causal.json"
        payload = save_report(report, out)
        assert payload["schema"] == SCHEMA_ID
        loaded = load_report(out)
        assert loaded["makespan"] == pytest.approx(trace.makespan)
        assert loaded["critical_path"]["segments"]
        assert loaded["fault_cost"]["per_suspect"]
        assert loaded["diff"]["events"]
        total = sum(
            seg["end"] - seg["start"]
            for seg in loaded["critical_path"]["segments"]
        )
        assert total == pytest.approx(loaded["makespan"])

    def test_load_rejects_wrong_schema(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something/9"}))
        with pytest.raises(ValueError, match="expected schema"):
            load_report(bogus)

    def test_overlay_underlines_the_chain(self, bus_solution1):
        schedule = bus_solution1.schedule
        trace = simulate(schedule, FailureScenario.none())
        report = analyze_trace(trace, schedule, method="solution1")
        chart = critical_overlay(trace, report)
        assert "^" in chart
        assert "critical path:" in chart

    def test_analyze_emits_causal_metrics(self, bus_solution1):
        schedule = bus_solution1.schedule
        trace = simulate(schedule, FailureScenario.none())
        with instrumented() as session:
            analyze_trace(trace, schedule, method="solution1")
        registry = session.registry
        assert registry.counter_value("causal.analyses") == 1
        assert registry.counter_value("causal.nodes") > 0
        assert registry.counter_value("causal.edges") > 0

    def test_response_time_inf_serializes_as_null(self, bus_solution1):
        schedule = bus_solution1.schedule
        trace = simulate(schedule, FailureScenario.dead_from_start("P1"))
        report = analyze_trace(trace, schedule, method="solution1")
        if math.isinf(trace.response_time):
            assert report.to_dict()["response_time"] is None


class TestTracerJsonlExport:
    def test_jsonl_lines_parse_and_match_spans(self, tmp_path):
        from repro.obs.tracing import Tracer

        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        out = tmp_path / "spans.jsonl"
        count = tracer.export_jsonl(str(out))
        lines = out.read_text().splitlines()
        assert count == len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert {r["name"] for r in records} == {"outer", "inner"}
        inner = next(r for r in records if r["name"] == "inner")
        assert inner["depth"] == 1
        outer = next(r for r in records if r["name"] == "outer")
        assert outer["args"] == {"kind": "test"}

    def test_append_mode_streams(self, tmp_path):
        from repro.obs.tracing import Tracer

        out = tmp_path / "stream.jsonl"
        for round_no in range(3):
            tracer = Tracer(enabled=True)
            with tracer.span("scenario", index=round_no):
                pass
            tracer.export_jsonl(str(out), append=True)
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert [r["args"]["index"] for r in records] == [0, 1, 2]

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        from repro.obs.tracing import Tracer

        out = tmp_path / "empty.jsonl"
        assert Tracer(enabled=True).export_jsonl(str(out)) == 0
        assert out.read_text() == ""
