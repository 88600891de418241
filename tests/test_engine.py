"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import (
    Delay,
    Event,
    SimulationError,
    Simulator,
    Wait,
    WaitAny,
)


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.call_at(2.0, lambda: log.append("b"))
        sim.call_at(1.0, lambda: log.append("a"))
        sim.call_at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, lambda: log.append("first"))
        sim.call_at(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, lambda: log.append(1))
        sim.call_at(10.0, lambda: log.append(10))
        assert sim.run(until=5.0) == 5.0
        assert log == [1]


class TestDelays:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Delay(-1.0)

    def test_process_delays(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield Delay(2.0)
            times.append(sim.now)
            yield Delay(0.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [0.0, 2.0, 2.5]


class TestEvents:
    def test_wait_receives_value(self):
        sim = Simulator()
        event = sim.event("e")
        got = []

        def waiter():
            value = yield Wait(event)
            got.append((sim.now, value))

        sim.process(waiter())
        sim.call_at(3.0, lambda: sim.fire(event, "payload"))
        sim.run()
        assert got == [(3.0, "payload")]

    def test_wait_on_already_fired_event_is_immediate(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def late_waiter():
            yield Delay(5.0)
            value = yield Wait(event)
            got.append((sim.now, value))

        sim.process(late_waiter())
        sim.call_at(1.0, lambda: sim.fire(event, 42))
        sim.run()
        assert got == [(5.0, 42)]

    def test_first_fire_wins(self):
        sim = Simulator()
        event = sim.event()
        sim.call_at(1.0, lambda: sim.fire(event, "first"))
        sim.call_at(2.0, lambda: sim.fire(event, "second"))
        sim.run()
        assert event.value == "first"
        assert event.fire_time == 1.0

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        event = sim.event()
        resumed = []

        def waiter(name):
            yield Wait(event)
            resumed.append(name)

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.call_at(1.0, lambda: sim.fire(event))
        sim.run()
        assert sorted(resumed) == ["a", "b"]


class TestWaitAny:
    def test_event_beats_deadline(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            outcome = yield WaitAny((event,), deadline=10.0)
            got.append((sim.now, outcome))

        sim.process(waiter())
        sim.call_at(3.0, lambda: sim.fire(event))
        sim.run()
        assert got == [(3.0, 0)]

    def test_deadline_beats_silence(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            outcome = yield WaitAny((event,), deadline=4.0)
            got.append((sim.now, outcome))

        sim.process(waiter())
        sim.run()
        assert got == [(4.0, None)]

    def test_index_of_fired_event(self):
        sim = Simulator()
        first, second = sim.event(), sim.event()
        got = []

        def waiter():
            outcome = yield WaitAny((first, second), deadline=None)
            got.append(outcome)

        sim.process(waiter())
        sim.call_at(1.0, lambda: sim.fire(second))
        sim.run()
        assert got == [1]

    def test_no_double_resume_on_tie(self):
        """Event firing exactly at the deadline resumes once only."""
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            outcome = yield WaitAny((event,), deadline=5.0)
            got.append(outcome)
            yield Delay(1.0)
            got.append("alive")

        sim.process(waiter())
        sim.call_at(5.0, lambda: sim.fire(event))
        sim.run()
        assert len(got) == 2
        assert got[1] == "alive"


class TestBlockedProcesses:
    def test_blocked_process_does_not_hang_the_run(self):
        """A waiter on a never-fired event is abandoned at drain time —
        how 'receiver waits for a dead sender' terminates."""
        sim = Simulator()
        event = sim.event()
        resumed = []

        def waiter():
            yield Wait(event)
            resumed.append(True)

        sim.process(waiter())
        sim.call_at(1.0, lambda: None)
        final = sim.run()
        assert final == 1.0
        assert resumed == []

    def test_unknown_command_rejected(self):
        sim = Simulator()

        def bad():
            yield "not a command"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()
