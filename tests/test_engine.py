"""Unit tests for the discrete-event simulation kernel.

Programs on the kernel are explicit-state callbacks: ``at`` schedules
``fn(a, b)``, and an event table is a dict from a key to its pending
``(fn, a, b)`` waiters, or to ``None`` once the key fired.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator


def record(log, label):
    log.append(label)


def timed_wait(sim, table, keys, deadline, got):
    """Wait for the first of ``keys`` until ``deadline``, the way the
    executive's watchdog does: every waker carries the wait's position,
    and the first to run takes it; ``got`` receives ``(now, index of
    the fired key or None)``."""
    waiting = {"wait": True}

    def woken(position, outcome):
        if waiting.pop(position, None):
            got.append((sim.now, outcome))

    for index, key in enumerate(keys):
        if not sim.wait(table, key, woken, "wait", index):
            return woken("wait", index)  # answered at once
    if deadline is not None:
        sim.at(deadline, woken, "wait", None)


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(2.0, record, log, "b")
        sim.at(1.0, record, log, "a")
        sim.at(3.0, record, log, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        log = []
        sim.at(1.0, record, log, "first")
        sim.at(1.0, record, log, "second")
        sim.run()
        assert log == ["first", "second"]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.at(5.0, record, [], None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(1.0, record, [], None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.at(1.0, record, log, 1)
        sim.at(10.0, record, log, 10)
        assert sim.run(until=5.0) == 5.0
        assert log == [1]
        assert sim.run() == 10.0
        assert log == [1, 10]

    def test_halt_returns_between_two_callbacks(self):
        sim = Simulator()
        log = []

        def halting(log, label):
            log.append(label)
            sim.halt()

        sim.at(1.0, halting, log, "a")
        sim.at(1.0, record, log, "b")
        assert sim.run() == 1.0
        assert log == ["a"] and sim.pending == 1
        sim.run()
        assert log == ["a", "b"]


class TestDelays:
    def test_negative_delay_rejected(self):
        """A delay is a date relative to now: a negative one is a past
        date, which a callback may not schedule either."""
        sim = Simulator()

        def late(_a, _b):
            sim.at(sim.now - 0.5, record, [], None)

        sim.at(2.0, late, None, None)
        with pytest.raises(SimulationError, match="in the past"):
            sim.run()

    def test_process_delays(self):
        """A process's only state is its position, carried in ``b``."""
        sim = Simulator()
        delays = (2.0, 0.5)
        times = []

        def step(times, index):
            times.append(sim.now)
            if index < len(delays):
                sim.at(sim.now + delays[index], step, times, index + 1)

        sim.at(0.0, step, times, 0)
        sim.run()
        assert times == [0.0, 2.0, 2.5]


class TestEvents:
    def test_wait_receives_value(self):
        """A waiter runs as ``fn(a, b)`` at the fire date."""
        sim = Simulator()
        table = {}
        got = []

        def waiter(a, b):
            got.append((sim.now, a, b))

        assert sim.wait(table, "e", waiter, "who", "payload")
        sim.at(3.0, sim.fire, table, "e")
        sim.run()
        assert got == [(3.0, "who", "payload")]
        assert table == {"e": None}

    def test_wait_on_already_fired_event_is_immediate(self):
        """Waiting on a fired key adds nothing and returns False: the
        caller goes on in the same callback."""
        sim = Simulator()
        table = {}
        got = []

        def late_waiter(got, _unused):
            if not sim.wait(table, "e", record, got, "waiter"):
                got.append((sim.now, "at once"))

        sim.at(1.0, sim.fire, table, "e")
        sim.at(5.0, late_waiter, got, None)
        sim.run()
        assert got == [(5.0, "at once")]
        assert table == {"e": None}

    def test_first_fire_wins(self):
        sim = Simulator()
        table = {}
        log = []
        sim.wait(table, "e", record, log, "waiter")
        sim.at(1.0, sim.fire, table, "e")
        sim.at(2.0, sim.fire, table, "e")
        sim.run()
        assert log == ["waiter"]
        assert table == {"e": None}
        assert not sim.wait(table, "e", record, log, "late")

    def test_multiple_waiters_all_resume(self):
        """Waiters run in registration order, after the callbacks
        already scheduled at the fire date."""
        sim = Simulator()
        table = {}
        resumed = []
        for name in ("a", "b", "c"):
            sim.wait(table, "e", record, resumed, name)
        sim.at(1.0, sim.fire, table, "e")
        sim.at(1.0, record, resumed, "scheduled")
        sim.run()
        assert resumed == ["scheduled", "a", "b", "c"]

    def test_waiting_builds_a_new_tuple(self):
        """A shallow copy of a table keeps its waiters as they were:
        the prover's checkpoints rely on it."""
        sim = Simulator()
        table = {}
        sim.wait(table, "e", record, [], "a")
        saved = dict(table)
        sim.wait(table, "e", record, [], "b")
        assert len(saved["e"]) == 1 and len(table["e"]) == 2

    def test_firing_a_key_without_waiters(self):
        sim = Simulator()
        table = {}
        sim.fire(table, "e")
        assert table == {"e": None} and sim.pending == 0


class TestWaitAny:
    """A timed wait on event keys (see :func:`timed_wait`)."""

    def test_event_beats_deadline(self):
        sim = Simulator()
        table = {}
        got = []
        timed_wait(sim, table, ("e",), 10.0, got)
        sim.at(3.0, sim.fire, table, "e")
        sim.run()
        assert got == [(3.0, 0)]

    def test_deadline_beats_silence(self):
        sim = Simulator()
        got = []
        timed_wait(sim, {}, ("e",), 4.0, got)
        sim.run()
        assert got == [(4.0, None)]

    def test_index_of_fired_event(self):
        sim = Simulator()
        table = {}
        got = []
        timed_wait(sim, table, ("first", "second"), None, got)
        sim.at(1.0, sim.fire, table, "second")
        sim.run()
        assert got == [(1.0, 1)]

    def test_no_double_resume_on_tie(self):
        """A fire exactly at the deadline wakes the wait once only: the
        deadline entry, scheduled before the fire pushed the waiter,
        runs first."""
        sim = Simulator()
        table = {}
        got = []
        sim.at(5.0, sim.fire, table, "e")
        timed_wait(sim, table, ("e",), 5.0, got)
        sim.run()
        assert got == [(5.0, None)]


class TestBlockedProcesses:
    def test_blocked_process_does_not_hang_the_run(self):
        """A waiter on a never-fired key is abandoned at drain time —
        how 'receiver waits for a dead sender' terminates."""
        sim = Simulator()
        resumed = []
        sim.wait({}, "never", record, resumed, True)
        sim.at(1.0, record, [], None)
        final = sim.run()
        assert final == 1.0
        assert resumed == []
