"""Integration tests: whole pipelines across modules.

These tests wire the full chain the way a user would — generate or
load a problem, schedule it with all three heuristics, validate,
certify, simulate under faults, measure — and cross-check that the
static analysis (certification) agrees with the dynamic one
(simulation).
"""

import itertools
import math

import pytest

from repro.analysis import overhead, render_schedule, render_trace
from repro.core import (
    schedule_baseline,
    schedule_solution1,
    schedule_solution2,
)
from repro.core.validate import certify_fault_tolerance, validate_schedule
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.graphs.io import load_problem, save_problem
from repro.sim import FailureScenario, simulate, transient_then_steady


class TestFullPipeline:
    @pytest.mark.parametrize("seed", range(3))
    def test_bus_pipeline(self, seed, tmp_path):
        problem = random_bus_problem(
            operations=12, processors=4, failures=1, seed=seed
        )
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        problem = load_problem(path)

        baseline = schedule_baseline(problem)
        solution = schedule_solution1(problem)
        for result in (baseline, solution):
            validate_schedule(result.schedule).raise_if_invalid()
        certify_fault_tolerance(solution.schedule).raise_if_invalid()

        report = overhead(baseline.schedule, solution.schedule)
        assert math.isfinite(report.absolute)

        healthy = simulate(solution.schedule)
        assert healthy.completed
        render_schedule(solution.schedule)
        render_trace(healthy)

    @pytest.mark.parametrize("seed", range(3))
    def test_p2p_pipeline(self, seed):
        problem = random_p2p_problem(
            operations=12, processors=4, failures=1, seed=seed
        )
        solution = schedule_solution2(problem)
        validate_schedule(solution.schedule).raise_if_invalid()
        certify_fault_tolerance(solution.schedule).raise_if_invalid()
        for victim in problem.architecture.processor_names:
            trace = simulate(
                solution.schedule, FailureScenario.dead_from_start(victim)
            )
            assert trace.completed


#: (generator, kwargs, scheduler) per agreement case.  The first three
#: keep their historical ids; ``baseline-bus10-s3`` is a pattern where
#: replicas on live processors block behind lost inputs.
AGREEMENT_CASES = [
    pytest.param(
        random_bus_problem,
        dict(operations=10, processors=4, failures=1, seed=seed),
        schedule_solution1,
        id=str(seed),
    )
    for seed in range(3)
] + [
    pytest.param(
        random_bus_problem,
        dict(operations=8, processors=4, failures=2, seed=21),
        schedule_solution1,
        id="s1-bus8-k2",
    ),
    pytest.param(
        random_bus_problem,
        dict(operations=10, processors=4, failures=2, seed=0),
        schedule_solution1,
        id="s1-bus10-k2",
    ),
    pytest.param(
        random_p2p_problem,
        dict(operations=10, processors=4, failures=1, seed=2),
        schedule_solution2,
        id="s2-p2p10-k1",
    ),
    pytest.param(
        random_bus_problem,
        dict(operations=10, processors=4, failures=1, seed=3),
        schedule_baseline,
        id="baseline-bus10-s3",
    ),
]


def _assert_certification_matches_simulation(schedule, report):
    """Each pattern's verdict and lost operations equal a simulated
    iteration with the pattern's processors dead from the start."""
    order = schedule.problem.algorithm.topological_order()
    for outcome in report.outcomes:
        scenario = (
            FailureScenario.dead_from_start(*sorted(outcome.failed))
            if outcome.failed
            else FailureScenario.none()
        )
        trace = simulate(schedule, scenario)
        assert trace.completed == outcome.ok, outcome
        executed = trace.executed_ops()
        lost = tuple(op for op in order if op not in executed)
        assert outcome.lost_operations == lost, outcome


class TestStaticDynamicAgreement:
    """The exhaustive static certification and the simulator must agree
    on which failure patterns are survivable, and on what each loses."""

    @pytest.mark.parametrize("generator, kwargs, scheduler", AGREEMENT_CASES)
    def test_certification_matches_simulation_solution1(
        self, generator, kwargs, scheduler
    ):
        schedule = scheduler(generator(**kwargs)).schedule
        _assert_certification_matches_simulation(
            schedule, certify_fault_tolerance(schedule)
        )

    def test_baseline_certification_matches_simulation(self, bus_baseline):
        _assert_certification_matches_simulation(
            bus_baseline.schedule,
            certify_fault_tolerance(bus_baseline.schedule, failures=1),
        )


class TestArchitectureAppropriateness:
    """Section 5.6 criterion 4, end to end: Solution 1 suits buses,
    Solution 2 suits point-to-point links — on the paper's example."""

    def test_solution1_beats_solution2_on_bus(self, bus_problem):
        s1 = schedule_solution1(bus_problem)
        s2 = schedule_solution2(bus_problem)
        assert s1.makespan <= s2.makespan

    def test_solution2_on_p2p_beats_solution2_on_bus(
        self, bus_problem, p2p_problem
    ):
        on_bus = schedule_solution2(bus_problem)
        on_p2p = schedule_solution2(p2p_problem)
        assert on_p2p.makespan <= on_bus.makespan


class TestTransientBehaviourAcrossVictims:
    def test_every_victim_and_steady_state(self, bus_solution1):
        for victim in ("P1", "P2", "P3"):
            run = transient_then_steady(bus_solution1.schedule, victim, 1.0, 1)
            assert run.all_completed
            assert run.response_times[1] <= run.response_times[0] + 1e-9


class TestDoubleFaultToleranceEndToEnd:
    def test_k2_bus_solution1(self):
        problem = random_bus_problem(
            operations=8, processors=4, failures=2, seed=21
        )
        schedule = schedule_solution1(problem).schedule
        certify_fault_tolerance(schedule).raise_if_invalid()
        procs = problem.architecture.processor_names
        for victims in itertools.combinations(procs, 2):
            trace = simulate(
                schedule, FailureScenario.simultaneous(victims, at=0.0)
            )
            assert trace.completed, victims

    def test_k2_p2p_solution2(self):
        problem = random_p2p_problem(
            operations=8, processors=4, failures=2, seed=22
        )
        schedule = schedule_solution2(problem).schedule
        procs = problem.architecture.processor_names
        for victims in itertools.combinations(procs, 2):
            trace = simulate(
                schedule, FailureScenario.simultaneous(victims, at=1.0)
            )
            assert trace.completed, victims
