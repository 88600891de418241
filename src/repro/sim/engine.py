"""A small generator-based discrete-event simulation kernel.

The distributed executive of :mod:`repro.sim.executive` and the
pipelined run of :mod:`repro.sim.pipeline` are expressed as concurrent
*processes* (Python generators) that yield simulation commands:

* ``Delay(dt)`` — suspend for ``dt`` simulated time units;
* ``Wait(event)`` — suspend until ``event`` fires; the yielded
  expression evaluates to the event's value;
* ``WaitAny(events, deadline)`` — suspend until any of the events
  fires or until the absolute ``deadline`` passes; evaluates to the
  index of the fired event, or ``None`` on timeout.

Determinism: simultaneous callbacks run in scheduling order (a
monotonically increasing sequence number breaks time ties), so runs
are exactly reproducible — which the tests rely on.

The kernel is closure-free: a heap entry is ``(time, seq, fn, a, b)``
and runs as ``fn(a, b)``, event waiters are ``(fn, a, b)`` triples,
and a process resumed by an already-fired event keeps running in the
same call instead of recursing.  :class:`LazyEvents` creates each
event of an interpreter's event table on first lookup.  Every
:meth:`Simulator.run` adds the callbacks it processed to the
``sim.engine.events`` counter, whichever interpreter built it.

A *callback-only* program (the prover's abstract run) keeps each
process's state in the never-mutated arguments of its ``fn(a, b)``
entries; its kernel state is then the clock, heap and sequence that
:meth:`Simulator.checkpoint` copies (a generator cannot be copied), and
:meth:`Simulator.halt` stops a run between two callbacks to take one.

This is deliberately a minimal subset of what a library like simpy
offers; keeping it local avoids a dependency and keeps the semantics
of failure injection (processes of a crashed processor simply stop
being resumed) explicit and auditable.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..obs import get_instrumentation

__all__ = [
    "Delay",
    "Wait",
    "WaitAny",
    "Event",
    "LazyEvents",
    "Simulator",
    "SimulationError",
]

#: Processes are generators yielding commands and receiving wait results.
ProcessBody = Generator[Any, Any, None]

_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised on kernel misuse (bad command, negative delay...)."""


class Delay:
    """Command: suspend the process for ``duration`` time units."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative delay {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay(duration={self.duration!r})"


class Wait:
    """Command: suspend until ``event`` fires; returns its value."""

    __slots__ = ("event",)

    def __init__(self, event: "Event") -> None:
        self.event = event

    def __repr__(self) -> str:
        return f"Wait(event={self.event!r})"


class WaitAny:
    """Command: suspend until one of ``events`` fires or ``deadline``.

    The process receives the index (into ``events``) of the fired
    event, or ``None`` when the absolute deadline passed first.
    ``deadline=None`` waits indefinitely.
    """

    __slots__ = ("events", "deadline")

    def __init__(
        self, events: Tuple["Event", ...], deadline: Optional[float] = None
    ) -> None:
        self.events = events
        self.deadline = deadline

    def __repr__(self) -> str:
        return f"WaitAny(events={self.events!r}, deadline={self.deadline!r})"


def _call(callback: Callable[[], None], _unused: Any) -> None:
    callback()


#: A waiter's ``b`` that ``fire`` replaces with the event's value, so a
#: ``Wait`` resumes its process with no call in between.
_VALUE = object()


class Event:
    """A one-shot level-triggered signal carrying an optional value.

    Once fired the event stays fired: late waiters resume immediately.
    Firing twice is a no-op (first value wins), which is exactly the
    "first copy wins, later copies are discarded" semantics Solution 2
    needs.
    """

    __slots__ = ("name", "fired", "value", "fire_time", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fired = False
        self.value: Any = None
        self.fire_time: Optional[float] = None
        #: ``(fn, a, b)`` triples, scheduled as ``fn(a, b)`` on fire
        #: (``fn(a, value)`` when ``b`` is ``_VALUE``).
        self._waiters: List[tuple] = []

    def add_waiter(self, callback: Callable[[], None]) -> None:
        self._waiters.append((_call, callback, None))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"fired@{self.fire_time}" if self.fired else "pending"
        return f"Event({self.name!r}, {state})"


class LazyEvents(defaultdict):
    """An interpreter's event table: one unnamed event per key, each
    created on first lookup.

    Creating an event draws no sequence number from the simulator, so
    making it late instead of up front changes no event order.  The
    events are unnamed: a name per key would need a Python
    ``__missing__`` on every creation, where ``defaultdict``'s runs in C.
    """

    def __init__(self) -> None:
        super().__init__(Event)


class _Pending:
    """One pending ``WaitAny``: the first of its wakers resumes it."""

    __slots__ = ("body", "done")

    def __init__(self, body: ProcessBody) -> None:
        self.body = body
        self.done = False


class Simulator:
    """The event loop: a time-ordered heap of ``(time, seq, fn, a, b)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self._halted = False
        #: Callbacks processed by every run() so far (not restored).
        self.steps = 0

    # ------------------------------------------------------------------
    # Low-level scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (>= now)."""
        self.at(time, _call, callback, None)

    def at(self, time: float, fn: Callable[[Any, Any], None], a: Any, b: Any) -> None:
        """Run ``fn(a, b)`` at absolute ``time`` (>= now), without a closure."""
        now = self.now
        if time < now - 1e-12:
            raise SimulationError(f"cannot schedule in the past: {time} < {now}")
        _heappush(
            self._heap, (now if now > time else time, next(self._sequence), fn, a, b)
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh (unfired) event."""
        return Event(name)

    def fire(self, event: Event, value: Any = None) -> None:
        """Fire ``event`` now; waiters resume in registration order.

        Firing an already-fired event is ignored (first value wins).
        """
        if event.fired:
            return
        event.fired = True
        event.value = value
        now = event.fire_time = self.now
        waiters = event._waiters
        if waiters:
            event._waiters = []
            heap, sequence = self._heap, self._sequence
            for fn, a, b in waiters:
                _heappush(
                    heap, (now, next(sequence), fn, a, value if b is _VALUE else b)
                )

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, body: ProcessBody) -> None:
        """Start a generator process at the current time."""
        _heappush(self._heap, (self.now, next(self._sequence), self._step, body, None))

    def _step(self, body: ProcessBody, value: Any) -> None:
        # A command answered at once (an already-fired event) resumes
        # the process in this call: loop instead of recursing.
        while True:
            try:
                command = body.send(value)
            except StopIteration:
                return
            kind = type(command)
            if kind is Delay:
                _heappush(
                    self._heap,
                    (self.now + command.duration, next(self._sequence),
                     self._step, body, None),
                )
                return
            if kind is Wait:
                event = command.event
                if event.fired:
                    value = event.value
                    continue
                event._waiters.append((self._step, body, _VALUE))
                return
            if kind is not WaitAny:
                raise SimulationError(f"unknown simulation command: {command!r}")
            for index, event in enumerate(command.events):
                if event.fired:
                    value = index
                    break
            else:
                pending = _Pending(body)
                for index, event in enumerate(command.events):
                    event._waiters.append((self._resume, pending, index))
                if command.deadline is not None:
                    self.at(command.deadline, self._resume, pending, None)
                return

    def _resume(self, pending: _Pending, value: Any) -> None:
        if not pending.done:
            pending.done = True
            self._step(pending.body, value)

    # ------------------------------------------------------------------
    # Running (checkpoints: callback-only programs, see the module doc)
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        """The clock, the pending callbacks and the sequence position."""
        sequence = next(self._sequence)
        self._sequence = itertools.count(sequence)
        return self.now, self._heap[:], sequence

    def restore(self, checkpoint: tuple) -> None:
        """Go back to ``checkpoint`` (which stays valid)."""
        self.now, heap, sequence = checkpoint
        self._heap[:] = heap
        self._sequence = itertools.count(sequence)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def halt(self) -> None:
        """Make :meth:`run` return after the current callback."""
        self._halted = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or ``until`` passes,
        or a callback calls :meth:`halt`).

        Returns the final simulated time.  Processes still blocked on
        unfired events when the heap drains are abandoned — this is
        how "a receiver waiting for a dead processor blocks forever"
        naturally terminates the simulation.
        """
        obs = get_instrumentation()
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                time, _seq, fn, a, b = pop(heap)
                self.now = time
                fn(a, b)
                processed += 1
                if self._halted:
                    self._halted = False
                    break
            return self.now
        finally:
            # One registry update per run(), not per event: the hot
            # loop itself only pays a local integer increment.
            self.steps += processed
            obs.count("sim.engine.events", processed)
