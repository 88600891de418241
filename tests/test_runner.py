"""Tests for multi-iteration simulation: transient vs. subsequent
iterations, flag carrying, and intermittent fail-silent recovery."""

import math

import pytest

from repro.core.solution2 import schedule_solution2
from repro.sim import (
    FailureScenario,
    simulate,
    simulate_sequence,
    transient_then_steady,
)


class TestTransientThenSteady:
    def test_all_iterations_complete(self, bus_solution1):
        run = transient_then_steady(bus_solution1.schedule, "P2", 3.0, 2)
        assert run.all_completed
        assert len(run.iterations) == 3

    def test_detections_only_in_transient_iteration(self, bus_solution1):
        run = transient_then_steady(bus_solution1.schedule, "P2", 3.0, 2)
        assert run.iterations[0].detections
        assert run.iterations[1].detections == []
        assert run.iterations[2].detections == []

    def test_steady_not_slower_than_transient(self, bus_solution1):
        run = transient_then_steady(bus_solution1.schedule, "P2", 3.0, 1)
        assert run.response_times[1] <= run.response_times[0] + 1e-9

    def test_flags_carried(self, bus_solution1):
        run = transient_then_steady(bus_solution1.schedule, "P2", 3.0, 1)
        assert any("P2" in flags for flags in run.final_flags.values())

    @pytest.mark.parametrize("victim", ["P1", "P2"])
    def test_timeout_penalty_visible_when_main_dies_early(
        self, bus_solution1, victim
    ):
        """Crashing a processor before it produced anything forces the
        full timeout ladder in the transient iteration; the subsequent
        iteration skips it (Figure 18(a) vs 18(b))."""
        run = transient_then_steady(bus_solution1.schedule, victim, 0.5, 1)
        transient, steady = run.response_times
        assert run.all_completed
        assert steady <= transient

    def test_without_flag_carry_every_iteration_pays_timeouts(
        self, bus_solution1
    ):
        scenarios = [
            FailureScenario.dead_from_start("P2"),
            FailureScenario.dead_from_start("P2"),
        ]
        run = simulate_sequence(
            bus_solution1.schedule, scenarios, carry_flags=False
        )
        assert run.iterations[0].detections
        assert run.iterations[1].detections  # paid again

    @pytest.mark.parametrize("carry", [True, False])
    def test_final_flags_are_mutable_sets(self, bus_solution1, carry):
        run = simulate_sequence(
            bus_solution1.schedule,
            [FailureScenario.crash("P2", 3.0)],
            carry_flags=carry,
        )
        assert any("P2" in flags for flags in run.final_flags.values())
        for proc, flags in run.final_flags.items():
            assert type(flags) is set
            flags.add("P9")  # a caller may edit its copy
            assert "P9" in run.final_flags[proc]


class TestSequenceSemantics:
    def test_empty_sequence(self, bus_solution1):
        run = simulate_sequence(bus_solution1.schedule, [])
        assert run.iterations == []
        assert run.all_completed

    def test_failure_free_sequence_stable(self, bus_solution1):
        scenarios = [FailureScenario.none()] * 3
        run = simulate_sequence(bus_solution1.schedule, scenarios)
        assert len(set(run.response_times)) == 1

    def test_propagation_unions_flags(self, bus_solution1):
        scenarios = [
            FailureScenario.crash("P2", 3.0),
            FailureScenario.dead_from_start("P2"),
        ]
        run = simulate_sequence(
            bus_solution1.schedule, scenarios, propagate_flags=True
        )
        live = [p for p in run.final_flags if p != "P2"]
        for proc in live:
            assert "P2" in run.final_flags[proc]


class TestIntermittentRecovery:
    def test_solution1_bus_processor_rejoins(self, bus_solution1):
        """Section 6.1 item 3: on a single bus, snooping lets a
        recovered fail-silent processor be accepted again — its flag
        is cleared once it transmits."""
        scenarios = [
            FailureScenario.dead_from_start("P2"),  # outage iteration
            FailureScenario.none(),  # P2 is back
            FailureScenario.none(),
        ]
        run = simulate_sequence(bus_solution1.schedule, scenarios)
        assert run.all_completed
        # After the recovery iterations, nobody flags P2 anymore.
        for proc, flags in run.final_flags.items():
            assert "P2" not in flags
        # And the last iteration runs at the nominal failure-free pace.
        nominal = simulate(bus_solution1.schedule).response_time
        assert run.response_times[-1] == pytest.approx(nominal)

    def test_solution2_p2p_processor_stays_excluded(self, p2p_solution2):
        """Section 7.4: on point-to-point links the recovered processor
        receives no inputs and never comes back."""
        scenarios = [
            FailureScenario.dead_from_start("P2"),
            FailureScenario.none(),
            FailureScenario.none(),
        ]
        run = simulate_sequence(p2p_solution2.schedule, scenarios)
        assert run.all_completed  # K=1 still covers the exclusion
        for proc, flags in run.final_flags.items():
            if proc != "P2":
                assert "P2" in flags, "P2 must remain suspected"
        # P2 still executes the operations it can feed locally, but
        # whatever needs a remote input starves forever, and the
        # response time never returns to the nominal failure-free one.
        nominal = simulate(p2p_solution2.schedule)
        last = run.iterations[-1]
        nominal_ops = {r.op for r in nominal.executions_on("P2")}
        recovered_ops = {r.op for r in last.executions_on("P2")}
        assert recovered_ops < nominal_ops, "P2 must stay partially dead"
        assert run.response_times[-1] > nominal.response_time


class TestBaselineSequence:
    def test_baseline_never_recovers(self, bus_baseline):
        run = transient_then_steady(bus_baseline.schedule, "P2", 3.0, 1)
        used = {r.processor for r in bus_baseline.schedule.all_replicas()}
        if "P2" in used:
            assert not run.all_completed
            assert math.isinf(run.response_times[0])
