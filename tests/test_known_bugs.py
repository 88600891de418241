"""Regression tests for bugs that were pinned and then fixed.

Each test here replays the scenario of a bug that ROADMAP.md once
listed under "Open items" and that a strict ``xfail`` pinned until
its fix.  The campaign reproducer fixture
(``tests/fixtures/roadmap_delivery_gap.json``, ``expect: "pass"``) is
the executable form of the same scenario: ``repro campaign run
--repro`` replays it.

The Solution-1 take-over delivery gap: a watchdog stood down when a
takeover frame was *dispatched*, so a crash of the sender
mid-transmission lost a frame the later watchers had given up on.  A
watchdog now stands down only on a *completed* observable frame.
"""

from pathlib import Path

import pytest

from repro.core import schedule_solution1
from repro.graphs.generators import random_bus_problem
from repro.obs.campaign import (
    CampaignScenario,
    class_key,
    execute_scenario,
    load_reproducer,
    problem_from_spec,
    scenario_from_dict,
)
from repro.core.timeline import event_boundaries
from repro.sim import FailureScenario, simulate
from repro.sim.values import reference_outputs

FIXTURE = Path(__file__).parent / "fixtures" / "roadmap_delivery_gap.json"


def _bug_problem():
    return random_bus_problem(operations=10, processors=4, failures=2, seed=0)


def _bug_scenario(problem):
    return FailureScenario.random(
        problem.architecture.processor_names,
        problem.failures,
        seed=38,
    )


class TestSolution1DeliveryGap:
    """Fixed ROADMAP bug: Solution-1 take-over delivery gap under
    double failures (found by Hypothesis during PR 4)."""

    def test_double_crash_iteration_completes(self):
        problem = _bug_problem()
        schedule = schedule_solution1(problem).schedule
        scenario = _bug_scenario(problem)
        trace = simulate(schedule, scenario)
        assert trace.completed
        # P2's takeover frame for L1N2 -> L2N0 is lost when P2 crashes
        # at 15.09; P3's rank-1 rung fires and P3 takes over at 18.259.
        takeovers = [
            frame
            for frame in trace.frames
            if frame.dependency == ("L1N2", "L2N0") and frame.takeover
        ]
        assert [(f.sender, f.delivered) for f in takeovers] == [
            ("P2", False),
            ("P3", True),
        ]
        assert takeovers[1].start == pytest.approx(18.259, abs=1e-3)

    def test_campaign_reproducer_passes(self):
        # The committed reproducer replays the same scenario through
        # the campaign executor: it now passes, with no diagnosis.
        repro = load_reproducer(FIXTURE)
        assert repro["expect"] == "pass"
        problem = problem_from_spec(repro["problem"])
        schedule = schedule_solution1(problem).schedule
        scenario = scenario_from_dict(repro["scenario"])
        boundaries = event_boundaries(schedule)
        campaign_scenario = CampaignScenario(
            scenario=scenario,
            key=class_key(scenario, boundaries),
            origin="reproducer",
        )
        outcome = execute_scenario(
            schedule,
            campaign_scenario,
            reference=reference_outputs(problem.algorithm),
            problem_spec=repro["problem"],
            method=repro["method"],
        )
        assert outcome.passed, outcome.reasons
        assert outcome.diagnosis is None

    def test_reproducer_matches_the_roadmap_scenario(self):
        # Guard the fixture itself: it must encode exactly the crash
        # pair the ROADMAP entry describes.
        repro = load_reproducer(FIXTURE)
        scenario = scenario_from_dict(repro["scenario"])
        crashed = {
            crash.processor: crash.at for crash in scenario.crashes
        }
        assert set(crashed) == {"P2", "P4"}
        assert crashed["P4"] == pytest.approx(2.031, abs=1e-3)
        assert crashed["P2"] == pytest.approx(15.09, abs=1e-2)
