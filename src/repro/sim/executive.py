"""The distributed real-time executive, interpreted over the simulator.

AAA's second step generates, from the static schedule, a distributed
executive: per processor, the computation unit runs its operation
sequence in static order (each operation blocking until its inputs are
locally available), and the communication units perform the sends,
receives and — for Solution 1 — the ``OpComm`` watchdogs of Figure 12.
This module builds exactly those behaviours as explicit-state
callbacks on :mod:`repro.sim.engine`, in the prover's form (a
process's only state is its position: a row of its op rows, a send
plan, a ladder rung), reading every static fact (each processor's op
rows, the planned senders, destinations, planned release dates,
watchdog ladders and their spawn order) from the schedule's compiled
:class:`~repro.core.executive_plan.ExecutivePlan`, the same plan the
prover's delivery automaton reads, and parameterized by the schedule's
semantics:

``BASELINE``
    The single replica of each operation executes; the producer sends
    each inter-processor dependency once.  No redundancy: a crash
    starves the consumers and the iteration never completes.

``SOLUTION1``
    All replicas execute.  Only the main replica sends (one frame per
    outgoing dependency).  Every backup runs one watchdog per outgoing
    dependency: it waits for the presumed main's frame until the
    statically computed deadline, then declares that processor faulty
    (fail flag, Section 5.5), moves to the next candidate, and sends
    itself once it has become the presumed main.  Backups already
    knowing a candidate is dead (flags carried from earlier
    iterations) skip the wait — which is why subsequent iterations
    (Figure 18(b)) are faster than the transient one (Figure 18(a)).

``SOLUTION2``
    All replicas execute and all replicas send; receivers keep the
    first copy of each input and discard the rest.  No watchdogs, no
    timeouts.  Senders skip destinations they believe dead — the
    behaviour that makes recovery of an intermittently failed
    processor impossible on point-to-point links (Section 7.4).

A pipelined run (:mod:`repro.sim.pipeline`) chains one runtime per
iteration with :meth:`ExecutiveRuntime.successor`; a single run has
no successor and is released at 0.

Failure detection observability is configurable:

* ``snoop`` — a watchdog observes a frame only if it was carried by a
  multi-point link (every bus member physically sees every frame).
  This is the paper's Solution-1 setting.
* ``oracle`` — any completed frame is observable by every watchdog.
  This idealizes the agreement protocol the paper says point-to-point
  detection would need; it exists so Solution 1 can be simulated on
  point-to-point architectures for comparison experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.executive_plan import DEADLINE_SLACK, OpRow, resolve_detection
from ..core.schedule import Schedule, ScheduleSemantics
from .engine import EventTable, Simulator
from .faults import FailureScenario
from .network import NetworkRuntime
from .trace import DetectionRecord, ExecutionRecord, IterationTrace
from .values import compute_value

__all__ = ["ExecutiveRuntime"]

DependencyKey = Tuple[str, str]


class ExecutiveRuntime:
    """One simulated iteration of a schedule under a failure scenario.

    Parameters
    ----------
    schedule:
        A frozen schedule from any of the three schedulers.
    scenario:
        The failures injected during this iteration.
    detection:
        ``"snoop"`` | ``"oracle"`` | ``None`` (auto: ``snoop`` when the
        architecture has a bus, ``oracle`` otherwise).
    initial_flags:
        Per-processor fail-flag arrays carried over from previous
        iterations; ``scenario.known_failed`` is merged into every
        array.
    snoop_recovery:
        When True (auto: Solution 1 on a single-bus architecture),
        observing a frame from a flagged processor clears its flag
        everywhere — the Section 6.1 item 3 mechanism that lets
        intermittent fail-silent processors rejoin.
    iteration:
        Index of the simulated iteration; only influences the values
        sampled by input extios (see :mod:`repro.sim.values`).
    """

    def __init__(
        self,
        schedule: Schedule,
        scenario: Optional[FailureScenario] = None,
        detection: Optional[str] = None,
        initial_flags: Optional[Dict[str, Set[str]]] = None,
        snoop_recovery: Optional[bool] = None,
        iteration: int = 0,
    ) -> None:
        self.schedule = schedule
        self.problem = schedule.problem
        self.scenario = scenario or FailureScenario.none()
        self.scenario.check_against(
            self.problem.architecture.processor_names,
            self.problem.architecture.link_names,
        )
        self.iteration = iteration
        #: Functional payloads produced locally: (op, proc) -> value.
        self._values: Dict[Tuple[str, str], int] = {}

        architecture = self.problem.architecture
        self.detection, self.snoop_recovery = resolve_detection(
            schedule, detection, snoop_recovery
        )
        self.plan = schedule.executive_plan

        self.sim = Simulator()
        self.trace = IterationTrace(
            scenario_name=str(self.scenario),
            expected_outputs=self.plan.outputs,
        )
        self.network = NetworkRuntime(
            self.sim, self.problem, self.scenario, self.trace,
            self._on_deliver, self._on_observe,
        )

        #: Per-processor fail-flag arrays (Section 5.5).
        self.flags: Dict[str, Set[str]] = {
            proc: set(self.scenario.known_failed)
            for proc in architecture.processor_names
        }
        for proc, known in (initial_flags or {}).items():
            self.flags[proc].update(known)

        # Event tables (see repro.sim.engine): ``(dep, proc)`` arrivals,
        # ``(op, proc)`` productions, per-dependency observes ------------
        self._data: EventTable = {}
        self._produced: EventTable = {}
        self._observed: EventTable = {}
        #: The payload of each ``(dep, proc)`` arrival: the first copy wins.
        self._payloads: Dict[Tuple[DependencyKey, str], int] = {}
        #: Watch key -> the rung whose wait is pending (see _woken).
        self._waiting: Dict[Tuple[str, DependencyKey, str], int] = {}
        #: The iteration's release date and, in a pipelined run, the
        #: runtime of the next iteration (see successor).
        self.release = 0.0
        self._successor: Optional["ExecutiveRuntime"] = None

    def successor(self, release: float) -> "ExecutiveRuntime":
        """The next iteration of a pipelined run, released at ``release``,
        on this runtime's simulator and links.  Each unit and sender
        goes on to it when done here, a unit no earlier than
        ``release`` (its input extios sample that iteration's event).
        Solution-1 watchdogs are not handed on."""
        follower = ExecutiveRuntime(
            self.schedule, self.scenario, self.detection,
            snoop_recovery=self.snoop_recovery, iteration=self.iteration + 1,
        )
        follower.sim = self.sim
        follower.network = self.network.sibling(
            follower.trace, follower._on_deliver, follower._on_observe
        )
        follower.release = release
        self._successor = follower
        return follower

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> IterationTrace:
        """Start all processes, run to quiescence, return the trace."""
        at = self.sim.at
        for proc, rows in self.plan.timelines.items():
            at(0.0, self._unit_ready, (proc, rows), 0)
        for row in self.plan.senders:
            at(0.0, self._sender_ready, row, None)
        for key in self.plan.watch_order:  # Solution 1 only
            at(0.0, self._watch, key, 0)
        self.sim.run()
        self.trace.final_known_failed = frozenset().union(*self.flags.values())
        return self.trace

    # ------------------------------------------------------------------
    # Network callbacks
    # ------------------------------------------------------------------
    def _on_deliver(
        self, dep: DependencyKey, dest: str, time: float, payload: object
    ) -> None:
        # First copy wins; redundant later copies are ignored by the
        # one-shot event semantics (the Solution-2 receive rule).
        self._payloads.setdefault((dep, dest), payload)
        self.sim.fire(self._data, (dep, dest))

    def _on_observe(
        self, dep: DependencyKey, sender: str, link: str, time: float
    ) -> None:
        observable = self.detection == "oracle" or self.network.is_bus(link)
        if observable:
            self.sim.fire(self._observed, dep)
        if self.snoop_recovery and observable:
            # A frame from a flagged processor proves it came back to
            # life (intermittent fail-silent recovery, Section 6.1).
            for flags in self.flags.values():
                flags.discard(sender)

    # ------------------------------------------------------------------
    # Aliveness helpers
    # ------------------------------------------------------------------
    def _alive(self, proc: str) -> bool:
        return self.scenario.alive_at(proc, self.sim.now)

    # ------------------------------------------------------------------
    # Computation units
    # ------------------------------------------------------------------
    def _unit_ready(self, unit: Tuple[str, Tuple[OpRow, ...]], index: int) -> None:
        """Start row ``index`` of the processor's replicas, in static
        order, once its inputs arrived (a waiter rescans them: fired
        keys stay fired); after the last row, go on to the successor."""
        proc, rows = unit
        if index == len(rows):
            follower = self._successor
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
            if wait(self._data, ((pred, op), proc), self._unit_ready, unit, index):
                return
        if self._alive(proc):
            start = self.sim.now
            self.sim.at(start + duration, self._unit_done, unit, (index, start))

    def _unit_done(self, unit: Tuple[str, Tuple[OpRow, ...]], position) -> None:
        proc, rows = unit
        index, start = position
        op, _proc, predecessors, _duration, out_deps, is_output, _ = rows[index]
        end = self.sim.now
        completed = self.scenario.alive_through(proc, start, end)
        self.trace.executions.append(
            ExecutionRecord(
                op=op, processor=proc, start=start, end=end,
                completed=completed,
            )
        )
        if not completed:
            return
        operation = self.problem.algorithm.operation(op)
        payloads = self._payloads
        value = compute_value(
            op,
            operation.kind,
            {pred: payloads[((pred, op), proc)] for pred in predecessors},
            initial_value=operation.initial_value or 0.0,
            iteration=self.iteration,
        )
        self._values[(op, proc)] = value
        # The data of op now exists locally: feed local consumers
        # and mark production for the communication units.
        for dep in out_deps:
            self._on_deliver(dep, proc, end, value)
        self.sim.fire(self._produced, (op, proc))
        if is_output:
            self._record_output(op, proc, end, value)
        self._unit_ready(unit, index + 1)

    def _record_output(self, op: str, proc: str, end: float, value: int) -> None:
        """First production wins; replica disagreement is an anomaly."""
        if op not in self.trace.output_values:
            self.trace.output_values[op] = value
        elif self.trace.output_values[op] != value:
            self.trace.value_anomalies.append(
                f"output {op!r} on {proc}: value {value} differs from the "
                f"first recorded {self.trace.output_values[op]}"
            )
        known = self.trace.output_times.get(op)
        if known is None or end < known:
            self.trace.output_times[op] = end

    # ------------------------------------------------------------------
    # Communication units: senders
    # ------------------------------------------------------------------
    def _sender_ready(self, row: OpRow, _unused) -> None:
        """Plan every outgoing send of a produced replica.

        The comm side is time-triggered: sends are ordered by their
        planned release dates (offset by the iteration's release) and
        emitted no earlier than them, which
        makes the failure-free run reproduce the planned communication
        schedule exactly, and so keeps the watchdog deadlines (anchored
        on the static frame ends) free of spurious elections.  Frames
        without a plan (take-over sends) are event-triggered instead.
        Solution-2 senders skip destinations their processor believes
        dead (the fail-flag array) — harmless when wrong, and the very
        mechanism that starves falsely-suspected processors on
        point-to-point links (Section 7.4).
        """
        op, proc = row.op, row.processor
        if self.sim.wait(self._produced, (op, proc), self._sender_ready, row, None):
            return
        if not self._alive(proc):
            return
        skip_flagged = self.schedule.semantics is ScheduleSemantics.SOLUTION2
        offset, plans = self.release, []
        for dep in row.out_deps:
            dests = [d for d in self.plan.destinations[dep] if d != proc]
            if skip_flagged:
                dests = [d for d in dests if d not in self.flags[proc]]
            if not dests:
                continue
            planned = self.plan.planned_release[(dep, proc)]
            plans.append((self.sim.now if planned is None else offset + planned,
                          dep, dests))
        plans.sort(key=lambda plan: (plan[0], plan[1]))
        self._sender_wait((row, tuple(plans)), 0)

    def _sender_wait(self, sender, index: int) -> None:
        """Wait for plan ``index``'s release date if it is ahead."""
        plans, now = sender[1], self.sim.now
        if index == len(plans):
            if self._successor is not None:
                self._successor._sender_ready(sender[0], None)
            return
        release = plans[index][0]
        if now < release:
            self.sim.at(now + (release - now), self._sender_send, sender, index)
        else:
            self._sender_send(sender, index)

    def _sender_send(self, sender, index: int) -> None:
        row, plans = sender
        op, proc = row.op, row.processor
        if self._alive(proc):
            _release, dep, dests = plans[index]
            self.network.dispatch(
                dep, proc, dests, payload=self._values.get((op, proc))
            )
            self._sender_wait(sender, index + 1)

    # ------------------------------------------------------------------
    # Communication units: Solution-1 watchdogs (Figure 12's OpComm)
    # ------------------------------------------------------------------
    def _watch(self, key: Tuple[str, DependencyKey, str], start: int) -> None:
        """One OpComm instance: watch the message of ``dep``, take over.

        Mirrors Figure 12: ``m`` starts at the main; flagged
        candidates are skipped without waiting; a timeout marks the
        candidate's unit failed and advances ``m`` (the rung ``start``
        walks on from); if ``m`` reaches the watcher, it sends the
        result itself.
        """
        _op, dep, watcher = key
        ladder = self.plan.ladders[key]
        for index in range(start, len(ladder)):
            if not self._alive(watcher):
                return
            entry = ladder[index]
            if entry.candidate in self.flags[watcher]:
                continue  # already known faulty: no wait (Figure 12)
            self._waiting[key] = index
            if not self.sim.wait(self._observed, dep, self._woken, key, (index, True)):
                return self._woken(key, (index, True))  # answered at once
            deadline = entry.deadline + DEADLINE_SLACK
            return self.sim.at(deadline, self._woken, key, (index, False))
        # Every earlier candidate is believed dead: the watcher is the
        # effective main for this message.
        if self._observed.get(dep, ()) is not None:
            self._take_over(key, None)

    def _woken(self, key: Tuple[str, DependencyKey, str], wake) -> None:
        """The observe fired or the deadline passed, whichever first: a
        waker of an earlier wait finds another rung pending or none."""
        index, observed = wake
        if self._waiting.get(key) != index:
            return
        del self._waiting[key]
        op, _dep, watcher = key
        if not self._alive(watcher) or observed:
            return  # a healthier candidate sent: nothing to do
        self._declare_faulty(op, watcher, self.plan.ladders[key][index].candidate)
        self._watch(key, index + 1)

    def _take_over(self, key: Tuple[str, DependencyKey, str], _unused) -> None:
        op, dep, watcher = key
        if self.sim.wait(self._produced, (op, watcher), self._take_over, key, None):
            return
        if not self._alive(watcher):
            return
        dests = [d for d in self.plan.destinations[dep] if d != watcher]
        if dests:
            self.network.dispatch(
                dep, watcher, dests, takeover=True,
                payload=self._values.get((op, watcher)),
            )
        # The watcher's own send is, of course, observed by the
        # remaining (later) watchers.
        self.sim.fire(self._observed, dep)

    def _declare_faulty(self, op: str, watcher: str, suspect: str) -> None:
        if suspect in self.flags[watcher]:
            return
        self.flags[watcher].add(suspect)
        self.trace.detections.append(
            DetectionRecord(op=op, watcher=watcher, suspect=suspect, time=self.sim.now)
        )
