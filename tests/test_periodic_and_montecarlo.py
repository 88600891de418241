"""Tests for periodic-execution analysis and exact availability."""

import pytest

from repro.analysis.periodic import (
    can_sustain,
    degraded_min_period,
    min_period,
    unit_busy_times,
    worst_degraded_min_period,
)
from repro.core.degrade import DegradationError
from repro.sim.availability import exact_availability


class TestPeriodicAnalysis:
    def test_unit_busy_times_cover_everything(self, bus_solution1):
        busy = unit_busy_times(bus_solution1.schedule)
        assert set(busy) == {"P1", "P2", "P3", "bus"}
        assert all(value >= 0 for value in busy.values())

    def test_pipelined_period_below_makespan(self, bus_solution1):
        schedule = bus_solution1.schedule
        assert min_period(schedule, pipelined=True) <= schedule.makespan

    def test_unpipelined_period_is_makespan(self, bus_solution1):
        schedule = bus_solution1.schedule
        assert min_period(schedule, pipelined=False) == pytest.approx(
            schedule.makespan
        )

    def test_replication_raises_the_period_floor(
        self, bus_baseline, bus_solution1
    ):
        """K+1 replicas inflate unit busy times: the throughput
        ceiling drops when fault tolerance is added."""
        assert min_period(bus_solution1.schedule) >= min_period(
            bus_baseline.schedule
        )

    def test_can_sustain(self, bus_solution1):
        schedule = bus_solution1.schedule
        floor = min_period(schedule)
        assert can_sustain(schedule, floor)
        assert can_sustain(schedule, floor + 1.0)
        assert not can_sustain(schedule, floor - 0.5)

    def test_degraded_period_not_better(self, bus_solution1):
        """Concentrating surviving work on fewer processors can only
        keep or raise the per-unit busy maximum."""
        schedule = bus_solution1.schedule
        base = min_period(schedule)
        for victim in ("P1", "P2", "P3"):
            degraded = degraded_min_period(schedule, {victim})
            assert degraded >= base - 1e-9 or degraded >= 0

    def test_worst_degraded_period(self, bus_solution1):
        schedule = bus_solution1.schedule
        worst = worst_degraded_min_period(schedule)
        assert worst >= min_period(schedule) - 1e-9
        for victim in ("P1", "P2", "P3"):
            assert worst >= degraded_min_period(schedule, {victim}) - 1e-9

    def test_worst_degraded_respects_tolerance(self, bus_solution1):
        with pytest.raises(DegradationError):
            worst_degraded_min_period(bus_solution1.schedule, failures=2)


class TestMonteCarloAvailability:
    """Exact availability, which replaced the Monte-Carlo sampler: the
    pinned values are those of the paper's first example, Solution 1
    (Figure 17) against the default-seed SynDEx baseline."""

    @pytest.mark.parametrize(
        "fixture, p, expected, runs",
        [
            ("bus_solution1", 0.05, 0.99394, 1460),
            ("bus_solution1", 0.1, 0.97650, 1460),
            ("bus_solution1", 0.2, 0.91200, 1460),
            ("bus_baseline", 0.05, 0.88386, 154),
            ("bus_baseline", 0.1, 0.77685, 154),
            ("bus_baseline", 0.2, 0.58880, 154),
        ],
    )
    def test_pinned_values(self, fixture, p, expected, runs, request):
        result = exact_availability(request.getfixturevalue(fixture).schedule, p)
        assert result.availability == pytest.approx(expected, abs=1e-5)
        assert result.runs == runs

    def test_zero_probability_full_availability(self, bus_solution1):
        result = exact_availability(bus_solution1.schedule, 0.0)
        assert result.availability == 1.0
        assert result.conditional_survival == 1.0
        assert result.runs == 1  # only the failure-free run weighs

    def test_fault_tolerance_beats_baseline(self, bus_solution1, bus_baseline):
        """The headline quantification: under random crashes, the
        Solution-1 schedule completes (far) more iterations."""
        p = 0.15
        ft = exact_availability(bus_solution1.schedule, p)
        base = exact_availability(bus_baseline.schedule, p)
        assert ft.availability == pytest.approx(0.94881, abs=1e-5)
        assert base.availability == pytest.approx(0.67862, abs=1e-5)
        assert ft.conditional_survival > base.conditional_survival

    def test_invalid_probability_rejected(self, bus_solution1):
        with pytest.raises(ValueError):
            exact_availability(bus_solution1.schedule, 1.5)

    def test_str_mentions_percentages(self, bus_solution1):
        result = exact_availability(bus_solution1.schedule, 0.1)
        assert "availability 97.65%" in str(result)
        assert "survival given >=1 crash: 91.33%" in str(result)
