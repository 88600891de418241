"""Figure 12's protocol, written once: the executive's processes and frames.

AAA's generated executive (Section 6, Figure 12) is one protocol.  Per
processor, the computation unit runs its replicas in static order,
each blocking until its inputs are locally available.  The
communication units send each produced replica's data at its planned
release dates (time-triggered), and under Solution 1 every backup runs
an ``OpComm`` watchdog per outgoing dependency: a receive with a
timeout per ladder rung, which at the rung's deadline stands down if
the dependency's frame was observed by then, and otherwise declares
the presumed main faulty (fail flag, Section 5.5) and moves to the
next rung, until it finally sends itself.  Frames cross serialized
links store-and-forward along the static routes.

:class:`Protocol` holds all of it as explicit-state callbacks on
:mod:`repro.sim.engine` (a process's only state is its position: a row
of its op rows, a send plan, a ladder rung), reading every static fact
from the schedule's compiled
:class:`~repro.core.executive_plan.ExecutivePlan`:

* the three processes: ``_unit_ready``/``_unit_done``,
  ``_sender_ready``/``_sender_wait``/``_sender_send`` and
  ``_watch``/``_woken``/``_take_over``;
* the frame model: :meth:`Protocol.dispatch` groups a send into the
  planner's frames (``routing.frame_plan``/``hop_plan``), ``_emit``
  grants each on its link in submission order (one link-busy dict),
  ``_complete`` observes, delivers and relays it on (``_forward``).

Two *worlds* run the protocol, and each is a thin subclass:

* :class:`~repro.sim.executive.ExecutiveRuntime` runs it under a
  concrete :class:`~repro.sim.faults.FailureScenario` and records the
  iteration's trace, values and payloads;
* the prover's abstract run (:mod:`repro.lint.proof.verifier`) runs it
  under permanent crash dates and records every crash-date comparison
  as a guard, plus the delivery facts the proof artifact reports.

A world answers the protocol's questions and records what it keeps:

``alive_at(proc, time)``
    Is ``proc`` up at ``time``?
``_completes(row, start, end)`` / ``_transmits(frame, start, end)``
    Does the execution of ``row`` (a frame) over ``[start, end]``
    complete?  The executive asks the scenario whether the host (and
    the link) stays up throughout; under the prover's permanent
    crashes that is whether the host is up at ``end``.
``_deliver(dep, dest, sender, takeover, payload)``
    A completed frame reached a live ``dest``: fire its arrival.
``_output(op, proc)``, ``_detected(op, watcher, suspect)``
    Bookkeeping of a produced output and of a new fail flag (the
    protocol's ``_detected`` records nothing).

Every world shares the protocol's record of each dependency's one-shot
observe: ``observed`` maps ``dep`` to the ``(sender, date)`` of the
first observable frame that completed for it.  Watchdogs test
membership at their deadlines and nothing waits on it; the prover's
never-rearming ladders and the trace differ's stand-downs read the
sender and date.

The fail-flag arrays are frozen sets, rebound and never changed in
place, so that a shallow copy of a run's containers saves it:
:meth:`Protocol.checkpoint` copies the kernel state and each container
its world names in ``_COPIED``, and a world's ``restore`` resumes the
run under other failures that answer its questions alike (the
prover's region sweep, the campaign's resume from the failure-free
run).  This module imports nothing else from :mod:`repro.sim`: the
prover loads it without the executive, the fault model or the trace.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..core.executive_plan import DEADLINE_SLACK, OpRow
from ..core.schedule import Schedule, ScheduleSemantics
from .engine import EventTable, Simulator

__all__ = ["Protocol"]

DependencyKey = Tuple[str, str]
WatchKey = Tuple[str, DependencyKey, str]


class Protocol:
    """One iteration of a schedule's executive (see the module doc).

    ``detection`` and ``snoop_recovery`` are the resolved settings of
    :func:`~repro.core.executive_plan.resolve_detection`; ``flags`` maps
    every processor to its fail-flag array.
    """

    #: The containers a checkpoint copies; each world names its own.
    _COPIED: Tuple[str, ...] = (
        "busy", "flags", "data", "produced", "observed", "values",
    )

    def __init__(
        self,
        schedule: Schedule,
        detection: str,
        snoop_recovery: bool,
        flags: Dict[str, FrozenSet[str]],
    ) -> None:
        problem = schedule.problem
        architecture = problem.architecture
        self.plan = schedule.executive_plan
        self.routing, self.comm = problem.routing, problem.communication
        self.skip_flagged = schedule.semantics is ScheduleSemantics.SOLUTION2
        self.snoop_recovery = snoop_recovery
        #: Link -> whether a completed frame on it fires ``observed``:
        #: every bus member snoops a bus frame; ``oracle`` detection
        #: observes every frame.
        self.observable: Dict[str, bool] = {
            link: detection == "oracle" or architecture.link(link).is_bus
            for link in architecture.link_names
        }
        self.sim = Simulator()
        #: Link -> the date its last granted frame ends.
        self.busy: Dict[str, float] = dict.fromkeys(architecture.link_names, 0.0)
        #: Per-processor fail-flag arrays (Section 5.5).
        self.flags = flags
        #: Event tables (see repro.sim.engine): ``(dep, proc)`` arrivals,
        #: ``(op, proc)`` productions.
        self.data: EventTable = {}
        self.produced: EventTable = {}
        #: Each dependency's one-shot observe: ``dep -> (sender, date)``
        #: of its first observable frame to complete.  A watchdog reads
        #: it at its rung's deadline (see _woken).
        self.observed: Dict[DependencyKey, Tuple[str, float]] = {}
        #: ``(op, proc)`` -> the value a replica computed; frames carry
        #: it (the prover models no values: its frames carry None).
        self.values: Dict[Tuple[str, str], object] = {}
        #: The iteration's release date and, in a pipelined run, the
        #: next iteration's world: each unit and sender goes on to it
        #: when done here.
        self.release = 0.0
        self.follower: Optional["Protocol"] = None

    def start(self) -> None:
        """Spawn every unit, planned sender and watchdog at date 0, in
        the plan's order (which fixes the kernel's sequence numbers)."""
        at, plan = self.sim.at, self.plan
        for proc, rows in plan.timelines.items():
            at(0.0, self._unit_ready, (proc, rows), 0)
        for row in plan.senders:
            at(0.0, self._sender_ready, row, None)
        for key in plan.watch_order:  # Solution 1 only
            at(0.0, self._watch, key, 0)

    # ------------------------------------------------------------------
    # Checkpoints (see the module doc)
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        """Save the run between two kernel steps: the kernel state and
        a shallow copy of each container named in ``_COPIED``."""
        return self.sim.checkpoint(), [
            getattr(self, name).copy() for name in self._COPIED
        ]

    def restore(self, checkpoint: tuple) -> None:
        """Go back to ``checkpoint`` (it stays valid); a world's
        ``restore`` also rebinds the failures it runs under."""
        engine, saved = checkpoint
        self.sim.restore(engine)
        for name, value in zip(self._COPIED, saved):
            setattr(self, name, value.copy())

    # ------------------------------------------------------------------
    # Default bookkeeping (a world overrides what it keeps)
    # ------------------------------------------------------------------
    def _detected(self, op: str, watcher: str, suspect: str) -> None:
        """``watcher`` just flagged ``suspect`` while watching ``op``."""

    # ------------------------------------------------------------------
    # Computation units
    # ------------------------------------------------------------------
    def _unit_ready(self, unit: Tuple[str, Tuple[OpRow, ...]], index: int) -> None:
        """Start row ``index`` of the processor's replicas, in static
        order, once its inputs arrived (a waiter rescans them: fired
        keys stay fired); after the last row, go on to the follower."""
        proc, rows = unit
        if index == len(rows):
            follower = self.follower
            if follower is not None and rows:
                release, now = follower.release, self.sim.now
                if now < release:
                    self.sim.at(release, follower._unit_ready, unit, 0)
                else:
                    follower._unit_ready(unit, 0)
            return
        op, _proc, predecessors, duration, _out, _output, _ = rows[index]
        wait = self.sim.wait
        for pred in predecessors:
            if wait(self.data, ((pred, op), proc), self._unit_ready, unit, index):
                return
        start = self.sim.now
        if self.alive_at(proc, start):
            self.sim.at(start + duration, self._unit_done, unit, (index, start))

    def _unit_done(self, unit: Tuple[str, Tuple[OpRow, ...]], position) -> None:
        """The execution ended: if it completed, its data exists locally
        (feed local consumers, mark production for the comm units)."""
        proc, rows = unit
        index, start = position
        row = rows[index]
        if not self._completes(row, start, self.sim.now):
            return
        fire = self.sim.fire
        for dep in row.out_deps:
            fire(self.data, (dep, proc))
        fire(self.produced, (row.op, proc))
        if row.is_output:
            self._output(row.op, proc)
        self._unit_ready(unit, index + 1)

    # ------------------------------------------------------------------
    # Communication units: senders
    # ------------------------------------------------------------------
    def _sender_ready(self, row: OpRow, _unused) -> None:
        """Plan every outgoing send of a produced replica.

        The comm side is time-triggered: sends are ordered by their
        planned release dates (offset by the iteration's release) and
        emitted no earlier than them, which makes the failure-free run
        reproduce the planned communication schedule exactly, and so
        keeps the watchdog deadlines (anchored on the static frame
        ends) free of spurious elections.  Frames without a plan
        (take-over sends) are event-triggered instead.  Solution-2
        senders skip destinations their processor believes dead (the
        fail-flag array) — harmless when wrong, and the very mechanism
        that starves falsely-suspected processors on point-to-point
        links (Section 7.4).
        """
        op, proc = row.op, row.processor
        if self.sim.wait(self.produced, (op, proc), self._sender_ready, row, None):
            return
        now = self.sim.now
        if not self.alive_at(proc, now):
            return
        plan, offset, plans = self.plan, self.release, []
        for dep in row.out_deps:
            dests = [d for d in plan.destinations[dep] if d != proc]
            if self.skip_flagged:
                dests = [d for d in dests if d not in self.flags[proc]]
            if not dests:
                continue
            planned = plan.planned_release[(dep, proc)]
            plans.append((now if planned is None else offset + planned, dep, dests))
        plans.sort(key=lambda plan: (plan[0], plan[1]))
        self._sender_wait((row, tuple(plans)), 0)

    def _sender_wait(self, sender, index: int) -> None:
        """Wait for plan ``index``'s release date if it is ahead."""
        plans, now = sender[1], self.sim.now
        if index == len(plans):
            if self.follower is not None:
                self.follower._sender_ready(sender[0], None)
            return
        release = plans[index][0]
        if now < release:
            self.sim.at(now + (release - now), self._sender_send, sender, index)
        else:
            self._sender_send(sender, index)

    def _sender_send(self, sender, index: int) -> None:
        row, plans = sender
        proc = row.processor
        if self.alive_at(proc, self.sim.now):
            _release, dep, dests = plans[index]
            self.dispatch(dep, proc, dests, False, self.values.get((row.op, proc)))
            self._sender_wait(sender, index + 1)

    # ------------------------------------------------------------------
    # Communication units: Solution-1 watchdogs (Figure 12's OpComm)
    # ------------------------------------------------------------------
    def _watch(self, key: WatchKey, start: int) -> None:
        """One OpComm instance: watch the message of ``dep``, take over.

        Mirrors Figure 12: ``m`` starts at the main; flagged candidates
        are skipped without waiting; each other rung is a receive with a
        timeout, which arms only the rung's deadline (``_woken`` reads
        the one-shot observe there); if ``m`` reaches the watcher, it
        sends the result itself.  A frame observed before a rung is
        armed stands the watcher down at once.
        """
        _op, dep, watcher = key
        if dep in self.observed:
            return  # one-shot stand-down edge
        ladder = self.plan.ladders[key]
        for index in range(start, len(ladder)):
            if not self.alive_at(watcher, self.sim.now):
                return
            rung = ladder[index]
            if rung.candidate in self.flags[watcher]:
                continue  # already known faulty: no wait (Figure 12)
            deadline = rung.deadline + DEADLINE_SLACK
            return self.sim.at(deadline, self._woken, key, index)
        # Every earlier candidate is believed dead: the watcher is the
        # effective main for this message.
        self._take_over(key, None)

    def _woken(self, key: WatchKey, index: int) -> None:
        """Rung ``index``'s deadline passed: stand down if ``dep`` was
        observed by now, else mark the candidate's unit failed and
        advance ``m`` to the next rung."""
        op, dep, watcher = key
        if dep in self.observed or not self.alive_at(watcher, self.sim.now):
            return
        candidate = self.plan.ladders[key][index].candidate
        flagged = self.flags[watcher]
        if candidate not in flagged:
            self.flags[watcher] = flagged | {candidate}
            self._detected(op, watcher, candidate)
        self._watch(key, index + 1)

    def _take_over(self, key: WatchKey, _unused) -> None:
        op, dep, watcher = key
        if self.sim.wait(self.produced, (op, watcher), self._take_over, key, None):
            return
        if not self.alive_at(watcher, self.sim.now):
            return
        dests = [d for d in self.plan.destinations[dep] if d != watcher]
        if dests:
            self.dispatch(dep, watcher, dests, True, self.values.get((op, watcher)))

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def dispatch(
        self,
        dep: DependencyKey,
        sender: str,
        dests,
        takeover: bool = False,
        payload: object = None,
    ) -> None:
        """Send ``dep``'s data from ``sender`` to every destination.

        The frames are the static planner's (the same
        :meth:`~repro.graphs.routing.RoutingTable.frame_plan`): one per
        bus serving its destinations, a store-and-forward route for
        each other destination.  Non-blocking: each frame completes on
        its own through a scheduled callback.
        """
        routing, comm = self.routing, self.comm
        groups, unicast = routing.frame_plan(dep, sender, dests, comm)
        for link, served in groups:
            self._emit(dep, sender, served, link, takeover, payload, None)
        for dest in unicast:
            hops = routing.hop_plan(dep, sender, dest, comm)
            self._forward(dep, hops, 0, takeover, payload)

    def _forward(self, dep, hops, index: int, takeover: bool, payload) -> None:
        """Emit hop ``index`` of a route; a relay forwards the next hop
        when the frame reaches it (see _complete)."""
        if index >= len(hops):
            return
        hop_from, hop_to, link, _duration = hops[index]
        route = None if index == len(hops) - 1 else (hops, index + 1)
        self._emit(dep, hop_from, (hop_to,), link, takeover, payload, route)

    def _emit(self, dep, sender, dests, link, takeover, payload, route) -> None:
        """Grant one frame on ``link`` after the frames before it (the
        arbiter of Section 4.3); ``route`` (hops, next index) continues
        a multi-hop route after delivery."""
        duration = self.comm.duration(dep, link)
        start = max(self.sim.now, self.busy[link])
        if not self.alive_at(sender, start):
            # Fail-stop before transmission: the frame never exists and
            # the link is not occupied.
            return
        end = start + duration
        self.busy[link] = end
        frame = (dep, sender, dests, link, takeover, payload, route)
        if self._transmits(frame, start, end):  # else lost mid-frame
            self.sim.at(end, self._complete, frame, end)

    def _complete(self, frame: tuple, end: float) -> None:
        """A frame finished transmission: observe, deliver, relay on."""
        dep, sender, dests, link, takeover, payload, route = frame
        if self.observable[link]:
            observed = self.observed
            if dep not in observed:
                observed[dep] = (sender, end)
            if self.snoop_recovery:
                # A frame from a flagged processor proves it came back
                # to life (intermittent fail-silent recovery, 6.1).
                flags = self.flags
                for proc, flagged in flags.items():
                    if sender in flagged:
                        flags[proc] = flagged - {sender}
        for dest in dests:
            if self.alive_at(dest, end):
                self._deliver(dep, dest, sender, takeover, payload)
        if route is not None:
            # The relay forwards only if alive when the data reached it
            # (checked by _emit on the next hop's sender).
            self._forward(dep, route[0], route[1], takeover, payload)
