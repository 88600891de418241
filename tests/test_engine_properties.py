"""Property-based tests for the simulation kernel itself."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import instrumented
from repro.sim.engine import Delay, SimulationError, Simulator, Wait, WaitAny

FAST = settings(max_examples=50, deadline=None)


class TestTimerOrdering:
    @FAST
    @given(
        dates=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_callbacks_fire_in_nondecreasing_time_order(self, dates):
        sim = Simulator()
        fired = []
        for date in dates:
            sim.call_at(date, lambda d=date: fired.append((sim.now, d)))
        sim.run()
        observed = [now for now, _ in fired]
        assert observed == sorted(observed)
        assert sorted(d for _, d in fired) == sorted(dates)

    @FAST
    @given(
        dates=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_final_time_is_latest_callback(self, dates):
        sim = Simulator()
        for date in dates:
            sim.call_at(date, lambda: None)
        assert sim.run() == pytest.approx(max(dates))


class TestProcessDelays:
    @FAST
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=15,
        )
    )
    def test_delays_accumulate_exactly(self, delays):
        sim = Simulator()
        seen = []

        def proc():
            for delay in delays:
                yield Delay(delay)
                seen.append(sim.now)

        sim.process(proc())
        sim.run()
        expected = []
        total = 0.0
        for delay in delays:
            total += delay
            expected.append(total)
        assert seen == pytest.approx(expected)


class TestEventSemantics:
    @FAST
    @given(
        fire_at=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        wait_from=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        value=st.integers(),
    )
    def test_wait_gets_the_value_regardless_of_ordering(
        self, fire_at, wait_from, value
    ):
        """Level-triggered events: waiting before or after the fire
        date yields the same value; resume time is max(fire, wait)."""
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            yield Delay(wait_from)
            received = yield Wait(event)
            got.append((sim.now, received))

        sim.process(waiter())
        sim.call_at(fire_at, lambda: sim.fire(event, value))
        sim.run()
        (resumed_at, received) = got[0]
        assert received == value
        assert resumed_at == pytest.approx(max(fire_at, wait_from))

    @FAST
    @given(
        deadline=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        fire_at=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    def test_waitany_outcome_matches_the_race(self, deadline, fire_at):
        sim = Simulator()
        event = sim.event()
        outcomes = []

        def waiter():
            outcome = yield WaitAny((event,), deadline=deadline)
            outcomes.append((sim.now, outcome))

        sim.process(waiter())
        sim.call_at(fire_at, lambda: sim.fire(event))
        sim.run()
        resumed_at, outcome = outcomes[0]
        if fire_at < deadline:
            assert outcome == 0
            assert resumed_at == pytest.approx(fire_at)
        elif fire_at > deadline:
            assert outcome is None
            assert resumed_at == pytest.approx(deadline)
        # Exact ties resolve by scheduling order: either answer is
        # acceptable, but exactly one resume must have happened.
        assert len(outcomes) == 1

    @FAST
    @given(values=st.lists(st.integers(), min_size=2, max_size=8))
    def test_first_fire_wins_always(self, values):
        sim = Simulator()
        event = sim.event()
        for index, value in enumerate(values):
            sim.call_at(float(index), lambda v=value: sim.fire(event, v))
        sim.run()
        assert event.value == values[0]


# ----------------------------------------------------------------------
# Differential test against the closure-based reference kernel
# ----------------------------------------------------------------------
class _ReferenceEvent:
    """The event of the reference kernel: waiters are zero-arg closures."""

    def __init__(self, name=""):
        self.name = name
        self.fired = False
        self.value = None
        self.fire_time = None
        self._waiters = []

    def add_waiter(self, callback):
        self._waiters.append(callback)


class ReferenceSimulator:
    """The simulation kernel as it was before the closure-free rewrite:
    a heap of ``(time, seq, callback)``, one lambda per process start
    and per delay, and a ``done`` dict plus one closure per waited event
    and per deadline.  Kept as the oracle of the differential test."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = itertools.count()
        self.processed = 0

    def call_at(self, time, callback):
        if time < self.now - 1e-12:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (max(time, self.now), next(self._sequence), callback))

    def call_after(self, delay, callback):
        self.call_at(self.now + delay, callback)

    def event(self, name=""):
        return _ReferenceEvent(name)

    def fire(self, event, value=None):
        if event.fired:
            return
        event.fired = True
        event.value = value
        event.fire_time = self.now
        waiters, event._waiters = event._waiters, []
        for callback in waiters:
            self.call_at(self.now, callback)

    def process(self, body):
        self.call_at(self.now, lambda: self._step(body, None))

    def _step(self, body, send_value):
        try:
            command = body.send(send_value)
        except StopIteration:
            return
        self._dispatch(body, command)

    def _dispatch(self, body, command):
        if isinstance(command, Delay):
            self.call_after(command.duration, lambda: self._step(body, None))
        elif isinstance(command, Wait):
            self._wait_any(body, (command.event,), None, single=True)
        elif isinstance(command, WaitAny):
            self._wait_any(body, command.events, command.deadline, single=False)
        else:
            raise SimulationError(f"unknown simulation command: {command!r}")

    def _wait_any(self, body, events, deadline, single):
        done = {"resumed": False}

        def resume(result):
            if done["resumed"]:
                return
            done["resumed"] = True
            self._step(body, result)

        for index, event in enumerate(events):
            if event.fired:
                resume(event.value if single else index)
                return

        for index, event in enumerate(events):
            def on_fire(idx=index, ev=event):
                resume(ev.value if single else idx)

            event.add_waiter(on_fire)

        if deadline is not None:
            self.call_at(deadline, lambda: resume(None))

    def run(self, until=None):
        while self._heap:
            time, _seq, callback = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            callback()
            self.processed += 1
        return self.now


#: Dates on a coarse grid, so that fires, delays and deadlines tie often.
_DATES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_EVENTS = 4

_STEP = st.one_of(
    st.tuples(st.just("delay"), _DATES),
    st.tuples(st.just("wait"), st.integers(0, _EVENTS - 1)),
    st.tuples(
        st.just("waitany"),
        st.lists(st.integers(0, _EVENTS - 1), min_size=1, max_size=3),
        st.one_of(st.none(), _DATES),
    ),
    st.tuples(st.just("fire"), st.integers(0, _EVENTS - 1), st.integers(0, 9)),
    st.tuples(st.just("waiter"), st.integers(0, _EVENTS - 1)),
)

_PROGRAM = st.fixed_dictionaries(
    {
        "processes": st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=5),
        # call_at callbacks: (date, event, value) fires.
        "fires": st.lists(
            st.tuples(_DATES, st.integers(0, _EVENTS - 1), st.integers(0, 9)),
            max_size=5,
        ),
        # add_waiter callbacks registered before the run.
        "waiters": st.lists(st.integers(0, _EVENTS - 1), max_size=4),
        "until": st.one_of(st.none(), _DATES),
    }
)


def _run_program(sim, program):
    """Interpret ``program`` on ``sim``; return the callback log, the
    final time and each event's ``(value, fire_time)``."""
    log = []
    events = [sim.event(f"e{index}") for index in range(_EVENTS)]

    def body(pid, steps):
        log.append((sim.now, f"p{pid} start"))
        for index, step in enumerate(steps):
            label = f"p{pid}.{index}"
            kind = step[0]
            if kind == "delay":
                yield Delay(step[1])
                log.append((sim.now, f"{label} delay"))
            elif kind == "wait":
                value = yield Wait(events[step[1]])
                log.append((sim.now, f"{label} wait={value}"))
            elif kind == "waitany":
                # A deadline relative to now, so it never lies in the past.
                deadline = None if step[2] is None else sim.now + step[2]
                outcome = yield WaitAny(
                    tuple(events[i] for i in step[1]), deadline=deadline
                )
                log.append((sim.now, f"{label} any={outcome}"))
            elif kind == "fire":
                sim.fire(events[step[1]], step[2])
                log.append((sim.now, f"{label} fire"))
            else:
                events[step[1]].add_waiter(
                    lambda label=label: log.append((sim.now, f"{label} waiter"))
                )

    for pid, steps in enumerate(program["processes"]):
        sim.process(body(pid, steps))
    for index, (date, event, value) in enumerate(program["fires"]):
        def fire(index=index, event=event, value=value):
            log.append((sim.now, f"call{index}"))
            sim.fire(events[event], value)

        sim.call_at(date, fire)
    for index, event in enumerate(program["waiters"]):
        events[event].add_waiter(
            lambda index=index: log.append((sim.now, f"waiter{index}"))
        )
    final = sim.run(until=program["until"])
    return log, final, [(e.value, e.fire_time) for e in events]


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(program=_PROGRAM)
    def test_same_log_and_event_count(self, program):
        reference = ReferenceSimulator()
        expected = _run_program(reference, program)
        with instrumented() as session:
            got = _run_program(Simulator(), program)
        assert got == expected
        assert session.registry.counter_value("sim.engine.events") == (
            reference.processed
        )

    def test_public_errors_are_kept(self):
        sim = Simulator()
        sim.call_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative delay"):
            Delay(-0.5)

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="unknown simulation command"):
            sim.run()

    def test_waitany_deadline_in_the_past_is_rejected(self):
        sim = Simulator()

        def late():
            yield Delay(3.0)
            yield WaitAny((sim.event(),), deadline=1.0)

        sim.process(late())
        with pytest.raises(SimulationError, match="in the past"):
            sim.run()
