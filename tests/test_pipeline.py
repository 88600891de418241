"""Tests for pipelined (overlapping-iteration) execution."""

import functools
import math

import pytest

from repro.analysis.periodic import (
    executive_period_bound,
    min_period,
    unit_spans,
)
from repro.core import schedule_baseline, schedule_solution2
from repro.graphs.algorithm import chain
from repro.graphs.architecture import fully_connected_architecture
from repro.graphs.constraints import CommunicationTable, ExecutionTable, INFINITY
from repro.graphs.problem import Problem
from repro.sim import FailureScenario, simulate
from repro.sim.pipeline import simulate_pipelined

from .test_compile_golden import CASES, METHODS

#: The compile-golden battery, for the methods the pipeline runs.
BATTERY = [
    (label, method) for label in sorted(CASES) for method in ("baseline", "solution2")
]


@functools.lru_cache(maxsize=None)
def battery_schedule(label, method):
    return METHODS[method](CASES[label]()).schedule


@pytest.fixture(scope="module")
def distributed_chain():
    """a -> b -> c pinned to three different processors.

    Each processor's span is one operation, so the executive period
    bound sits far below the makespan: a true pipelining win.
    """
    algorithm = chain(["a", "b", "c"])
    architecture = fully_connected_architecture(["P1", "P2", "P3"])
    execution = ExecutionTable.from_rows(
        {
            "a": {"P1": 2.0, "P2": INFINITY, "P3": INFINITY},
            "b": {"P1": INFINITY, "P2": 2.0, "P3": INFINITY},
            "c": {"P1": INFINITY, "P2": INFINITY, "P3": 2.0},
        }
    )
    communication = CommunicationTable.uniform_per_dependency(
        {("a", "b"): 0.5, ("b", "c"): 0.5}, architecture.link_names
    )
    problem = Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=execution,
        communication=communication,
        failures=0,
    )
    return schedule_baseline(problem).schedule


class TestBounds:
    def test_bound_ordering(self, p2p_baseline):
        schedule = p2p_baseline.schedule
        assert (
            min_period(schedule)
            <= executive_period_bound(schedule) + 1e-9
        )
        assert executive_period_bound(schedule) <= schedule.makespan + 1e-9

    def test_chain_bound_below_makespan(self, distributed_chain):
        bound = executive_period_bound(distributed_chain)
        assert bound < distributed_chain.makespan - 0.5
        spans = unit_spans(distributed_chain)
        assert spans["P1"] == pytest.approx(2.0)


class TestSustainability:
    def test_sustainable_at_the_executive_bound(self, p2p_baseline):
        schedule = p2p_baseline.schedule
        bound = executive_period_bound(schedule)
        result = simulate_pipelined(schedule, bound, iterations=12)
        assert result.all_completed
        assert result.is_sustainable(tolerance=1e-6)

    def test_unsustainable_below_the_bound(self, p2p_baseline):
        schedule = p2p_baseline.schedule
        bound = executive_period_bound(schedule)
        result = simulate_pipelined(schedule, bound * 0.9, iterations=12)
        assert result.drift > 0

    def test_chain_pipelines_below_makespan(self, distributed_chain):
        """The real pipelining win: throughput well beyond 1/makespan."""
        bound = executive_period_bound(distributed_chain)
        result = simulate_pipelined(distributed_chain, bound, iterations=15)
        assert result.all_completed
        assert result.is_sustainable(tolerance=1e-6)
        # Latency stays the makespan even though the period is shorter.
        assert result.max_response == pytest.approx(
            distributed_chain.makespan
        )

    def test_solution2_pipelines(self, p2p_solution2):
        schedule = p2p_solution2.schedule
        bound = executive_period_bound(schedule)
        result = simulate_pipelined(schedule, bound, iterations=10)
        assert result.all_completed
        assert result.is_sustainable(tolerance=1e-6)

    def test_overload_drift_grows_linearly(self, p2p_baseline):
        schedule = p2p_baseline.schedule
        bound = executive_period_bound(schedule)
        deficit = 0.5
        short = simulate_pipelined(schedule, bound - deficit, iterations=6)
        long = simulate_pipelined(schedule, bound - deficit, iterations=12)
        # Each extra period adds ~deficit of backlog.
        assert long.drift > short.drift
        per_iteration = long.drift / (long.iterations - 1)
        assert per_iteration == pytest.approx(deficit, rel=0.2)


class TestGuards:
    def test_solution1_rejected(self, bus_solution1):
        with pytest.raises(ValueError, match="Solution-1"):
            simulate_pipelined(bus_solution1.schedule, 10.0)

    def test_bad_parameters(self, p2p_baseline):
        with pytest.raises(ValueError):
            simulate_pipelined(p2p_baseline.schedule, 0.0)
        with pytest.raises(ValueError):
            simulate_pipelined(p2p_baseline.schedule, 5.0, iterations=0)


class TestFailuresDuringPipelining:
    def test_solution2_covers_a_crash_mid_run(self, p2p_solution2):
        """A processor dying during a pipelined run: iterations keep
        completing thanks to the replicas."""
        schedule = p2p_solution2.schedule
        bound = executive_period_bound(schedule)
        result = simulate_pipelined(
            schedule,
            bound * 1.2,
            iterations=8,
            scenario=FailureScenario.crash("P3", at=2.5 * bound),
        )
        assert result.all_completed

    def test_baseline_dies_with_its_processor(self, p2p_baseline):
        schedule = p2p_baseline.schedule
        used = {r.processor for r in schedule.all_replicas()}
        victim = sorted(used)[0]
        result = simulate_pipelined(
            schedule,
            schedule.makespan,
            iterations=6,
            scenario=FailureScenario.crash(victim, at=0.5),
        )
        assert not result.all_completed
        assert math.isinf(result.completion_times[-1])


class TestExecutiveEquivalence:
    """Each pipelined iteration runs the executive's own process bodies:
    alone, it is the executive's run; at the executive period bound, no
    iteration delays the next."""

    @pytest.mark.parametrize("crash", [False, True], ids=["failure-free", "P2-mid"])
    @pytest.mark.parametrize("label,method", BATTERY)
    def test_one_iteration_is_the_executive_run(self, label, method, crash):
        schedule = battery_schedule(label, method)
        scenario = (
            FailureScenario.crash("P2", at=schedule.makespan / 2)
            if crash
            else FailureScenario.none()
        )
        expected = simulate(schedule, scenario).response_time
        for period in (schedule.makespan / 2, 10 * schedule.makespan):
            result = simulate_pipelined(schedule, period, 1, scenario)
            assert result.completion_times[0] == expected

    @pytest.mark.parametrize("label,method", BATTERY)
    def test_sustains_the_executive_bound(self, label, method):
        schedule = battery_schedule(label, method)
        bound = executive_period_bound(schedule)
        result = simulate_pipelined(schedule, bound, iterations=12)
        assert result.is_sustainable(tolerance=1e-6)
        assert result.max_response == pytest.approx(
            simulate(schedule).response_time, abs=1e-9
        )
