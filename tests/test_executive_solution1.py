"""Behavioural tests for the Solution-1 executive (bus + watchdogs)."""

import math

import pytest

from repro.sim import FailureScenario, simulate
from repro.sim.executive import ExecutiveRuntime


class TestFailureFree:
    def test_completes_within_static_makespan(self, bus_solution1):
        trace = simulate(bus_solution1.schedule)
        assert trace.completed
        assert trace.response_time <= bus_solution1.makespan + 1e-9

    def test_no_false_detections(self, bus_solution1):
        """The failure-free run must not declare anyone faulty — the
        timeout bounds are anchored on the static frame ends."""
        trace = simulate(bus_solution1.schedule)
        assert trace.detections == []
        assert trace.takeover_frames() == []

    def test_all_replicas_execute(self, bus_solution1):
        """Active replication: every replica runs, not just the main."""
        trace = simulate(bus_solution1.schedule)
        expected = len(bus_solution1.schedule.all_replicas())
        completed = [r for r in trace.executions if r.completed]
        assert len(completed) == expected

    def test_frame_count_matches_static_plan(self, bus_solution1):
        trace = simulate(bus_solution1.schedule)
        assert (
            trace.delivered_frame_count
            == bus_solution1.schedule.inter_processor_message_count()
        )


class TestSingleCrash:
    @pytest.mark.parametrize("victim", ["P1", "P2", "P3"])
    @pytest.mark.parametrize("crash_at", [0.0, 2.0, 4.5, 7.0])
    def test_outputs_survive_any_single_crash(
        self, bus_solution1, victim, crash_at
    ):
        """The paper's K=1 guarantee, exercised dynamically."""
        trace = simulate(bus_solution1.schedule, FailureScenario.crash(victim, crash_at))
        assert trace.completed, (victim, crash_at)
        assert math.isfinite(trace.response_time)

    def test_crash_triggers_detection_and_takeover(self, bus_solution1):
        trace = simulate(bus_solution1.schedule, FailureScenario.crash("P2", 3.0))
        assert trace.detections, "backups must detect the dead main"
        assert trace.takeover_frames(), "a backup must send in its place"
        for detection in trace.detections:
            assert detection.suspect == "P2"

    def test_transient_slower_than_failure_free(self, bus_solution1):
        healthy = simulate(bus_solution1.schedule)
        transient = simulate(
            bus_solution1.schedule, FailureScenario.crash("P2", 3.0)
        )
        assert transient.response_time >= healthy.response_time

    def test_victim_stops_executing(self, bus_solution1):
        trace = simulate(bus_solution1.schedule, FailureScenario.crash("P2", 3.0))
        for record in trace.executions_on("P2"):
            if record.completed:
                assert record.end <= 3.0 + 1e-9

    def test_known_failure_skips_timeouts(self, bus_solution1):
        """Subsequent iterations (flags set) take over without waiting:
        no detections are recorded because nothing new is learned."""
        undetected = simulate(
            bus_solution1.schedule, FailureScenario.dead_from_start("P2")
        )
        known = simulate(
            bus_solution1.schedule,
            FailureScenario.dead_from_start("P2", known=True),
        )
        assert undetected.detections
        assert known.detections == []
        assert known.completed
        assert known.response_time <= undetected.response_time + 1e-9


class TestBeyondK:
    def test_two_crashes_defeat_k1(self, bus_solution1):
        trace = simulate(
            bus_solution1.schedule,
            FailureScenario.simultaneous(["P1", "P2"], at=0.0),
        )
        # I and O only exist on P1/P2: the iteration cannot complete.
        assert not trace.completed
        assert trace.response_time == math.inf


class TestFlags:
    def test_detections_update_flags(self, bus_solution1):
        runtime = ExecutiveRuntime(
            bus_solution1.schedule, FailureScenario.crash("P2", 3.0)
        )
        runtime.run()
        assert any("P2" in flags for flags in runtime.flags.values())

    def test_initial_flags_injected(self, bus_solution1):
        runtime = ExecutiveRuntime(
            bus_solution1.schedule,
            FailureScenario.dead_from_start("P2"),
            initial_flags={"P3": {"P2"}},
        )
        trace = runtime.run()
        # P3 knew already; P1 may still detect on its own ladders.
        assert all(d.watcher != "P3" or d.suspect != "P2" for d in trace.detections)


class _CountingRuntime(ExecutiveRuntime):
    """Counts the rung deadlines armed and the ``_woken`` calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = self.woken = 0
        at = self.sim.at

        def counting_at(time, fn, a, b):
            if fn.__name__ == "_woken":
                self.armed += 1
            at(time, fn, a, b)

        self.sim.at = counting_at

    def _woken(self, key, index):
        self.woken += 1
        super()._woken(key, index)


class TestWatchdogWakes:
    def test_every_wake_is_an_armed_deadline(self, bus_solution1):
        """A rung is a receive with a timeout: it wakes once, at its
        deadline, and reads the one-shot observe there."""
        runtime = _CountingRuntime(
            bus_solution1.schedule, FailureScenario.crash("P2", 3.0)
        )
        trace = runtime.run()
        assert trace.completed and trace.detections
        assert runtime.armed > 0
        assert runtime.woken == runtime.armed


class TestBaselineExecutive:
    def test_failure_free_matches_static(self, bus_baseline):
        trace = simulate(bus_baseline.schedule)
        assert trace.completed
        assert trace.response_time == pytest.approx(bus_baseline.makespan)

    def test_any_used_processor_crash_starves_outputs(self, bus_baseline):
        used = {r.processor for r in bus_baseline.schedule.all_replicas()}
        for victim in sorted(used):
            trace = simulate(
                bus_baseline.schedule, FailureScenario.crash(victim, 0.0)
            )
            assert not trace.completed

    def test_no_watchdogs_in_baseline(self, bus_baseline):
        trace = simulate(
            bus_baseline.schedule, FailureScenario.crash("P2", 0.0)
        )
        assert trace.detections == []
        assert trace.takeover_frames() == []
