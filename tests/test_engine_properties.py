"""Property-based tests for the simulation kernel itself."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import instrumented
from repro.sim.engine import SimulationError, Simulator

from .test_engine import record, timed_wait

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

        def note(fired, date):
            fired.append((sim.now, date))

        for date in dates:
            sim.at(date, note, fired, date)
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
            sim.at(date, record, [], None)
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

        def step(seen, index):
            if index:
                seen.append(sim.now)
            if index < len(delays):
                sim.at(sim.now + delays[index], step, seen, index + 1)

        sim.at(0.0, step, seen, 0)
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
        """Level-triggered keys: waiting before or after the fire date
        goes on with the same value; resume time is max(fire, wait)."""
        sim = Simulator()
        table = {}
        got = []

        def resumed(got, received):
            got.append((sim.now, received))

        def waiter(got, value):
            if not sim.wait(table, "e", resumed, got, value):
                resumed(got, value)

        sim.at(wait_from, waiter, got, value)
        sim.at(fire_at, sim.fire, table, "e")
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
        table = {}
        outcomes = []
        timed_wait(sim, table, ("e",), deadline, outcomes)
        sim.at(fire_at, sim.fire, table, "e")
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
        """Only the first fire pushes the waiters; later fires of the
        key find it fired and push nothing."""
        sim = Simulator()
        table = {}
        log = []
        for value in values:
            sim.wait(table, "e", record, log, value)
        for index in range(len(values)):
            sim.at(float(index), sim.fire, table, "e")
        with instrumented() as session:
            sim.run()
        assert log == values
        assert table == {"e": None}
        assert session.registry.counter_value("sim.engine.events") == 2 * len(values)


# ----------------------------------------------------------------------
# Differential test against the closure-based reference kernel
# ----------------------------------------------------------------------
class _ReferenceEvent:
    """The event of the reference kernel: waiters are zero-arg closures."""

    def __init__(self):
        self.fired = False
        self._waiters = []


class ReferenceSimulator:
    """The kernel written with closures and event objects: a heap of
    ``(time, seq, callback)`` with one lambda per scheduled callback and
    per waiter, and tables that map a key to an event object created on
    first use.  Kept as the oracle of the differential test."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = itertools.count()
        self.processed = 0

    def call_at(self, time, callback):
        if time < self.now - 1e-12:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (max(time, self.now), next(self._sequence), callback))

    def at(self, time, fn, a, b):
        self.call_at(time, lambda: fn(a, b))

    def wait(self, table, key, fn, a, b):
        event = table.setdefault(key, _ReferenceEvent())
        if event.fired:
            return False
        event._waiters.append(lambda: fn(a, b))
        return True

    def fire(self, table, key):
        event = table.setdefault(key, _ReferenceEvent())
        if event.fired:
            return
        event.fired = True
        waiters, event._waiters = event._waiters, []
        for callback in waiters:
            self.call_at(self.now, callback)

    @staticmethod
    def fired(table, key):
        return key in table and table[key].fired

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


def _table_fired(table, key):
    return table.get(key, ()) is None


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
    st.tuples(st.just("fire"), st.integers(0, _EVENTS - 1)),
    st.tuples(st.just("waiter"), st.integers(0, _EVENTS - 1)),
)

_PROGRAM = st.fixed_dictionaries(
    {
        "processes": st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=5),
        # Scheduled callbacks: (date, event) fires.
        "fires": st.lists(
            st.tuples(_DATES, st.integers(0, _EVENTS - 1)), max_size=5
        ),
        # Plain waiters registered before the run.
        "waiters": st.lists(st.integers(0, _EVENTS - 1), max_size=4),
        "until": st.one_of(st.none(), _DATES),
    }
)


def _run_program(sim, program, fired):
    """Interpret ``program`` on ``sim`` as explicit-state callbacks (a
    process's position is ``(pid, step index)``); return the callback
    log, the final time and which event keys fired."""
    log = []
    table = {}
    #: pid -> the step index of its pending timed wait.
    waiting = {}
    processes = program["processes"]

    def note(label, _unused):
        log.append((sim.now, label))

    def start(pid, _unused):
        log.append((sim.now, f"p{pid} start"))
        run(pid, 0)

    def resumed(pid, position):
        index, what = position
        log.append((sim.now, f"p{pid}.{index} {what}"))
        run(pid, index + 1)

    def woken(pid, position):
        index, outcome = position
        if waiting.get(pid) != index:
            return
        del waiting[pid]
        resumed(pid, (index, f"any={outcome}"))

    def run(pid, index):
        """Run process ``pid`` from step ``index`` until it blocks."""
        steps = processes[pid]
        while index < len(steps):
            step, label = steps[index], f"p{pid}.{index}"
            kind = step[0]
            if kind == "delay":
                return sim.at(sim.now + step[1], resumed, pid, (index, "delay"))
            if kind == "wait":
                if not sim.wait(table, step[1], resumed, pid, (index, "wait")):
                    return resumed(pid, (index, "wait"))
                return
            if kind == "waitany":
                waiting[pid] = index
                for position, key in enumerate(step[1]):
                    if not sim.wait(table, key, woken, pid, (index, position)):
                        return woken(pid, (index, position))
                if step[2] is not None:
                    # A deadline relative to now, so never in the past.
                    sim.at(sim.now + step[2], woken, pid, (index, None))
                return
            if kind == "fire":
                sim.fire(table, step[1])
                log.append((sim.now, f"{label} fire"))
            elif not sim.wait(table, step[1], note, f"{label} waiter", None):
                log.append((sim.now, f"{label} fired before"))
            index += 1

    for pid in range(len(processes)):
        sim.at(0.0, start, pid, None)
    for index, (date, event) in enumerate(program["fires"]):
        def fire(index, event):
            log.append((sim.now, f"call{index}"))
            sim.fire(table, event)

        sim.at(date, fire, index, event)
    for index, event in enumerate(program["waiters"]):
        sim.wait(table, event, note, f"waiter{index}", None)
    final = sim.run(until=program["until"])
    return log, final, [fired(table, key) for key in range(_EVENTS)]


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(program=_PROGRAM)
    def test_same_log_and_event_count(self, program):
        reference = ReferenceSimulator()
        expected = _run_program(reference, program, reference.fired)
        with instrumented() as session:
            got = _run_program(Simulator(), program, _table_fired)
        assert got == expected
        assert session.registry.counter_value("sim.engine.events") == (
            reference.processed
        )

    def test_public_errors_are_kept(self):
        sim = Simulator()
        sim.at(2.0, record, [], None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(1.0, record, [], None)
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(sim.now - 0.5, record, [], None)

    def test_waitany_deadline_in_the_past_is_rejected(self):
        sim = Simulator()

        def late(_a, _b):
            timed_wait(sim, {}, ("e",), 1.0, [])

        sim.at(3.0, late, None, None)
        with pytest.raises(SimulationError, match="in the past"):
            sim.run()
