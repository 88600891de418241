"""Tests for repro.obs.campaign: space, executor, model, diagnosis."""

import math

import pytest

from repro.core.timeline import event_boundaries
from repro.obs import instrumented
from repro.obs.campaign import (
    CampaignScenario,
    class_key,
    enumerate_space,
    execute_scenario,
    load_campaigns,
    load_reproducer,
    make_reproducer,
    minimize_scenario,
    problem_from_spec,
    render_class_key,
    run_campaign,
    save_campaigns,
    save_reproducer,
    scenario_from_dict,
    scenario_to_dict,
    window_index,
)
from repro.sim import FailureScenario, simulate
from repro.sim.faults import Crash, LinkCrash
from repro.sim.values import reference_outputs


# ----------------------------------------------------------------------
# Equivalence classes
# ----------------------------------------------------------------------
class TestWindowIndex:
    def test_empty_boundaries(self):
        assert window_index([], 3.0) == 0

    def test_before_first_boundary(self):
        assert window_index([0.0, 1.0, 2.0], -0.5) == 0

    def test_inside_windows(self):
        boundaries = [0.0, 1.0, 2.0, 5.0]
        assert window_index(boundaries, 0.5) == 0
        assert window_index(boundaries, 1.5) == 1
        assert window_index(boundaries, 3.0) == 2

    def test_exact_boundary_opens_its_window(self):
        boundaries = [0.0, 1.0, 2.0]
        assert window_index(boundaries, 1.0) == 1

    def test_beyond_last_boundary(self):
        assert window_index([0.0, 1.0, 2.0], 99.0) == 2


class TestClassKey:
    def test_failure_free_is_empty_key(self):
        key = class_key(FailureScenario.none(), [0.0, 1.0])
        assert key == ()
        assert render_class_key(key) == "failure-free"

    def test_key_is_sorted_and_rendered(self):
        boundaries = [0.0, 1.0, 2.0, 5.0]
        scenario = FailureScenario(
            crashes=(Crash("P4", 0.5), Crash("P2", 3.0)), name="x"
        )
        key = class_key(scenario, boundaries)
        assert key == (("P2", 2), ("P4", 0))
        assert render_class_key(key) == "P2@w2+P4@w0"

    def test_same_window_same_class(self):
        boundaries = [0.0, 1.0, 2.0]
        a = class_key(FailureScenario.crash("P1", 1.1), boundaries)
        b = class_key(FailureScenario.crash("P1", 1.9), boundaries)
        c = class_key(FailureScenario.crash("P1", 0.5), boundaries)
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# Space enumeration
# ----------------------------------------------------------------------
class TestEnumerateSpace:
    def test_baseline_comes_first(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=1)
        assert space.scenarios[0].origin == "baseline"
        assert space.scenarios[0].key == ()

    def test_kept_classes_are_unique(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=1)
        keys = [s.key for s in space.scenarios]
        assert len(keys) == len(set(keys))
        assert space.enumerated_keys == sorted(
            render_class_key(k) for k in keys
        )

    def test_critical_instants_stay_inside_the_makespan(self, bus_solution1):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1)
        for campaign_scenario in space.scenarios:
            for crash in campaign_scenario.scenario.crashes:
                assert 0.0 <= crash.at < schedule.makespan

    def test_k1_enumerates_no_subsets(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=1)
        assert not any(
            s.origin == "subset-strata" for s in space.scenarios
        )

    def test_failures_zero_is_baseline_only(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=0)
        assert len(space.scenarios) == 1
        assert space.scenarios[0].origin == "baseline"

    def test_k2_enumerates_pair_subsets(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=2)
        subsets = [
            s for s in space.scenarios if s.origin == "subset-strata"
        ]
        assert subsets
        for campaign_scenario in subsets:
            assert len(campaign_scenario.scenario.crashes) == 2

    def test_enumeration_is_deterministic(self, bus_solution1):
        schedule = bus_solution1.schedule
        first = enumerate_space(schedule, failures=2, seed=7)
        second = enumerate_space(schedule, failures=2, seed=7)
        assert [str(s.scenario) for s in first.scenarios] == [
            str(s.scenario) for s in second.scenarios
        ]
        assert first.deduplicated == second.deduplicated

    def test_truncate_keeps_the_coverage_denominator(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=1)
        universe = space.enumerated_keys
        dropped = space.truncate(5)
        assert dropped == len(universe) - 5
        assert len(space.scenarios) == 5
        assert space.enumerated_keys == universe

    def test_truncate_rejects_nonpositive_limit(self, bus_solution1):
        space = enumerate_space(bus_solution1.schedule, failures=1)
        with pytest.raises(ValueError, match="limit"):
            space.truncate(0)

    def test_random_strata_mostly_deduplicate_at_k1(self, bus_solution1):
        # Single random crashes fall into windows the critical-instant
        # sweep already exhausted, so dedup must be doing real work.
        space = enumerate_space(
            bus_solution1.schedule, failures=1, random_strata=16
        )
        assert space.deduplicated > 0


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def _wrap(scenario, boundaries, origin="test"):
    return CampaignScenario(
        scenario=scenario,
        key=class_key(scenario, boundaries),
        origin=origin,
    )


class TestExecuteScenario:
    def test_tolerated_crash_passes(self, bus_solution1):
        schedule = bus_solution1.schedule
        reference = reference_outputs(schedule.problem.algorithm)
        boundaries = event_boundaries(schedule)
        outcome = execute_scenario(
            schedule,
            _wrap(FailureScenario.crash("P2", 3.0), boundaries),
            reference,
        )
        assert outcome.passed
        assert outcome.status == "pass"
        assert not outcome.reasons
        assert outcome.diagnosis is None
        assert outcome.reproducer is None
        assert outcome.detections >= 1
        assert outcome.takeover_latency > 0.0
        assert math.isfinite(outcome.response_time)
        assert outcome.work["sim.executions"] > 0

    def test_beyond_budget_crash_fails_with_diagnosis(self, bus_solution1):
        # fig17 tolerates K=1; killing two processors at once must
        # produce a failing verdict with a rendered diagnosis.
        schedule = bus_solution1.schedule
        reference = reference_outputs(schedule.problem.algorithm)
        boundaries = event_boundaries(schedule)
        scenario = FailureScenario.simultaneous(("P1", "P2"), 0.5)
        outcome = execute_scenario(
            schedule,
            _wrap(scenario, boundaries),
            reference,
            problem_spec={"kind": "paper-first", "failures": 1},
            method="solution1",
        )
        assert not outcome.passed
        assert "incomplete" in outcome.reasons
        assert outcome.diagnosis is not None
        assert "A never reached P3" in outcome.diagnosis["text"]
        assert "note:" in outcome.diagnosis["gantt"]
        assert outcome.reproducer is not None
        assert outcome.reproducer["expect"] == "fail"
        rebuilt = scenario_from_dict(outcome.reproducer["scenario"])
        assert rebuilt.failed_processors <= {"P1", "P2"}

    def test_no_minimize_keeps_the_original_scenario(self, bus_solution1):
        schedule = bus_solution1.schedule
        reference = reference_outputs(schedule.problem.algorithm)
        boundaries = event_boundaries(schedule)
        scenario = FailureScenario.simultaneous(("P1", "P2"), 0.5)
        outcome = execute_scenario(
            schedule,
            _wrap(scenario, boundaries),
            reference,
            problem_spec={"kind": "paper-first", "failures": 1},
            minimize=False,
        )
        rebuilt = scenario_from_dict(outcome.reproducer["scenario"])
        assert rebuilt.failed_processors == {"P1", "P2"}


class TestMinimizeScenario:
    def test_drops_crashes_that_are_not_load_bearing(self, bus_solution1):
        # P3 dying additionally to P1+P2 is irrelevant detail: the
        # minimizer may keep any failing subset, but it must shrink.
        schedule = bus_solution1.schedule
        reference = reference_outputs(schedule.problem.algorithm)
        scenario = FailureScenario.simultaneous(("P1", "P2", "P3"), 0.5)
        minimized = minimize_scenario(schedule, scenario, reference)
        assert len(minimized.crashes) < len(scenario.crashes)
        trace = simulate(schedule, minimized)
        assert not trace.completed

    def test_keeps_an_already_minimal_scenario(self, bus_solution1):
        schedule = bus_solution1.schedule
        reference = reference_outputs(schedule.problem.algorithm)
        scenario = FailureScenario.simultaneous(("P1", "P2"), 0.5)
        minimized = minimize_scenario(schedule, scenario, reference)
        # Either both crashes are load-bearing or one suffices — but
        # whatever remains must still fail.
        assert 1 <= len(minimized.crashes) <= 2
        trace = simulate(schedule, minimized)
        assert not trace.completed


# ----------------------------------------------------------------------
# Full campaigns
# ----------------------------------------------------------------------
class TestRunCampaign:
    @pytest.fixture(scope="class")
    def fig17_campaign(self, bus_solution1):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1)
        return run_campaign(
            schedule,
            space,
            label="paper:first",
            method="solution1",
            failures=1,
        )

    def test_paper_example_has_full_coverage(self, fig17_campaign):
        # The acceptance claim: 100% class coverage, every class passes.
        assert fig17_campaign.coverage == 1.0
        assert fig17_campaign.all_passed
        assert not fig17_campaign.unexercised_classes

    def test_paper_example_latency_is_bounded(self, fig17_campaign):
        # Takeover latency can never exceed the schedule horizon.
        assert 0.0 < fig17_campaign.worst_takeover_latency < 10.0

    def test_outcomes_cover_every_enumerated_class(self, fig17_campaign):
        assert (
            fig17_campaign.executed_classes == fig17_campaign.enumerated
        )

    def test_campaign_records_obs_counters(self, bus_solution1):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1, random_strata=0)
        with instrumented() as session:
            result = run_campaign(schedule, space, label="x", failures=1)
        registry = session.registry
        assert registry.counter_value("campaign.scenarios") == len(
            result.outcomes
        )
        assert registry.counter_value("campaign.passed") == len(
            result.passed
        )
        assert registry.counter_value(
            "campaign.classes_enumerated"
        ) == len(result.enumerated)

    def test_jobs_fanout_is_deterministic(self, bus_solution1):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1, random_strata=0)
        serial = run_campaign(schedule, space, label="x", failures=1)
        fanned = run_campaign(
            schedule, space, label="x", failures=1, jobs=4
        )
        assert [o.to_dict() for o in serial.outcomes] == [
            o.to_dict() for o in fanned.outcomes
        ]

    def test_rejects_nonpositive_jobs(self, bus_solution1):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1)
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(schedule, space, jobs=0)


# ----------------------------------------------------------------------
# Model (de)serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_campaign_roundtrip(self, bus_solution1, tmp_path):
        schedule = bus_solution1.schedule
        space = enumerate_space(schedule, failures=1, random_strata=0)
        result = run_campaign(
            schedule, space, label="paper:first", method="solution1",
            failures=1,
        )
        path = save_campaigns([result], tmp_path / "campaign.json")
        loaded = load_campaigns(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == result.to_dict()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/1", "targets": []}')
        with pytest.raises(ValueError, match="schema"):
            load_campaigns(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="JSON"):
            load_campaigns(path)

    def test_scenario_roundtrip_with_every_feature(self):
        scenario = FailureScenario(
            crashes=(Crash("P1", 1.0, 2.5), Crash("P2", 0.0)),
            link_crashes=(LinkCrash("bus", 3.0), LinkCrash("L1.2", 1.0, 4.0)),
            known_failed=frozenset({"P2"}),
            name="everything",
        )
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt == scenario

    def test_reproducer_roundtrip(self, tmp_path):
        repro = make_reproducer(
            {"kind": "paper-first", "failures": 1},
            "solution1",
            FailureScenario.crash("P2", 3.0),
            note="why it failed",
        )
        path = save_reproducer(repro, tmp_path / "repro.json")
        loaded = load_reproducer(path)
        assert loaded["method"] == "solution1"
        assert loaded["note"] == "why it failed"
        assert (
            scenario_from_dict(loaded["scenario"])
            == FailureScenario.crash("P2", 3.0)
        )

    def test_load_reproducer_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "repro.json"
        path.write_text(
            '{"schema": "repro.obs.campaign.reproducer/1", '
            '"problem": {}, "method": "x"}'
        )
        with pytest.raises(ValueError, match="scenario"):
            load_reproducer(path)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "paper-first", "failures": 1},
            {"kind": "paper-second", "failures": 1},
            {
                "kind": "random-bus",
                "operations": 6,
                "processors": 3,
                "failures": 1,
                "seed": 4,
            },
            {
                "kind": "random-p2p",
                "operations": 6,
                "processors": 3,
                "failures": 1,
                "seed": 4,
            },
        ],
        ids=lambda spec: spec["kind"],
    )
    def test_problem_from_spec_kinds(self, spec):
        problem = problem_from_spec(spec)
        assert problem.failures == spec["failures"]

    def test_problem_from_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown problem spec"):
            problem_from_spec({"kind": "nope"})
