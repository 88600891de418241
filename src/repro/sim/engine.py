"""A small callback-based discrete-event simulation kernel.

The executive's protocol (:mod:`repro.sim.protocol`) runs on it, in
both of its worlds: the simulated executive of
:mod:`repro.sim.executive` (which :mod:`repro.sim.pipeline` runs once
per iteration) and the prover's abstract run.  The protocol's
processes are explicit-state callbacks: a heap entry is
``(time, seq, fn, a, b)`` and runs as ``fn(a, b)``, and a process's
only state is its position (a row of its op rows, a send plan, a
ladder rung), carried in ``a`` and ``b``.

An *event table* is a plain dict.  A key maps to a tuple of
``(fn, a, b)`` waiters while it is pending (a missing key has none)
and to ``None`` once it fired.  :meth:`Simulator.wait` adds a waiter
to a pending key; :meth:`Simulator.fire` pushes a key's waiters, in
registration order, at the current time, and firing a fired key does
nothing (the first copy wins).  Adding a waiter builds a new tuple
instead of changing one, so a shallow copy of a table saves it.

Determinism: simultaneous callbacks run in scheduling order (a
monotonically increasing sequence number breaks time ties), so runs
are exactly reproducible — which the tests rely on.  Every
:meth:`Simulator.run` adds the callbacks it processed to the
``sim.engine.events`` counter, whichever world built it.

A program whose containers never change their entries in place (both
worlds of :class:`~repro.sim.protocol.Protocol`) is saved whole by
copying them and the kernel state, the clock, heap and sequence that
:meth:`Simulator.checkpoint` copies; :meth:`Simulator.halt` stops a
run between two callbacks to take one, and :meth:`Simulator.advance`
runs a counted number of callbacks to reach one.

This is deliberately a minimal subset of what a library like simpy
offers; keeping it local avoids a dependency and keeps the semantics
of failure injection (processes of a crashed processor simply stop
being resumed) explicit and auditable.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..obs import get_instrumentation

__all__ = ["Simulator", "SimulationError"]

_heappush = heapq.heappush

#: Key -> its pending ``(fn, a, b)`` waiters, or ``None`` once fired.
EventTable = Dict[Hashable, Optional[tuple]]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past)."""


class Simulator:
    """The event loop: a time-ordered heap of ``(time, seq, fn, a, b)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self._halted = False
        #: Callbacks processed by every run() so far (not restored).
        self.steps = 0

    def at(self, time: float, fn: Callable[[Any, Any], None], a: Any, b: Any) -> None:
        """Run ``fn(a, b)`` at absolute ``time`` (>= now)."""
        now = self.now
        if time < now - 1e-12:
            raise SimulationError(f"cannot schedule in the past: {time} < {now}")
        _heappush(
            self._heap, (now if now > time else time, next(self._sequence), fn, a, b)
        )

    # ------------------------------------------------------------------
    # Event tables
    # ------------------------------------------------------------------
    @staticmethod
    def wait(table: EventTable, key: Hashable, fn, a, b) -> bool:
        """Make ``fn(a, b)`` a waiter of ``key`` and return True, or
        return False (and add nothing) when ``key`` already fired."""
        waiters = table.get(key, ())
        if waiters is None:
            return False
        table[key] = waiters + ((fn, a, b),)
        return True

    def fire(self, table: EventTable, key: Hashable) -> None:
        """Fire ``key`` now: its waiters run in registration order.

        Firing an already-fired key is ignored.
        """
        waiters = table.get(key, ())
        if waiters is not None:
            table[key] = None
            now, heap, sequence = self.now, self._heap, self._sequence
            for fn, a, b in waiters:
                _heappush(heap, (now, next(sequence), fn, a, b))

    # ------------------------------------------------------------------
    # Running (checkpoints: see the module doc)
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

    def advance(self, count: int) -> int:
        """Process the next ``count`` callbacks (fewer when the heap
        drains) and return how many ran.

        Unlike :meth:`run` it adds nothing to ``sim.engine.events`` or
        :attr:`steps`: :class:`~repro.sim.runner.FailureFreePrefix`
        replays the failure-free run with it, and a scenario resumed
        from that run reports the steps it skipped as
        ``sim.prefix_steps`` instead.
        """
        heap, pop = self._heap, heapq.heappop
        ran = 0
        while ran < count and heap:
            time, _seq, fn, a, b = pop(heap)
            self.now = time
            fn(a, b)
            ran += 1
        return ran

    def halt(self) -> None:
        """Make :meth:`run` return after the current callback."""
        self._halted = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or ``until`` passes,
        or a callback calls :meth:`halt`).

        Returns the final simulated time.  Waiters of keys that never
        fire when the heap drains are abandoned — this is how "a
        receiver waiting for a dead processor blocks forever"
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
