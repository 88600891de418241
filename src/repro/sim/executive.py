"""The distributed real-time executive, interpreted over the simulator.

AAA's second step generates, from the static schedule, a distributed
executive: per processor, the computation unit runs its operation
sequence in static order (each operation blocking until its inputs are
locally available), and the communication units perform the sends,
receives and — for Solution 1 — the ``OpComm`` watchdogs of Figure 12.
This module builds exactly those behaviours as simulation processes,
reading every static fact (each processor's op rows, the planned
senders, destinations, planned release dates, watchdog ladders and
their spawn order) from the schedule's compiled
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
from .engine import Delay, LazyEvents, Simulator, Wait, WaitAny
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
            self.sim, self.problem, self.scenario, self.trace
        )
        self.network.on_deliver = self._on_deliver
        self.network.on_observe = self._on_observe

        #: Per-processor fail-flag arrays (Section 5.5).
        self.flags: Dict[str, Set[str]] = {
            proc: set(self.scenario.known_failed)
            for proc in architecture.processor_names
        }
        for proc, known in (initial_flags or {}).items():
            self.flags[proc].update(known)

        # Events, created on first use: ``(dep, proc)`` arrivals,
        # ``(op, proc)`` productions, per-dependency observes -----------
        self._data = LazyEvents()
        self._produced = LazyEvents()
        self._observed = LazyEvents()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> IterationTrace:
        """Build all processes, run to quiescence, return the trace."""
        for proc, rows in self.plan.timelines.items():
            self.sim.process(self._computation_unit(proc, rows))
        for row in self.plan.senders:
            self.sim.process(self._replica_sender(row.op, row.processor, row.out_deps))
        for op, dep, watcher in self.plan.watch_order:  # Solution 1 only
            self.sim.process(self._watchdog(op, dep, watcher))
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
        self.sim.fire(self._data[(dep, dest)], payload)

    def _on_observe(
        self, dep: DependencyKey, sender: str, link: str, time: float
    ) -> None:
        observable = self.detection == "oracle" or self.network.is_bus(link)
        if observable:
            self.sim.fire(self._observed[dep])
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
    def _computation_unit(self, proc: str, rows: Tuple[OpRow, ...]):
        """Run the processor's replicas in static order, data-driven."""
        sim = self.sim
        data = self._data
        operation_of = self.problem.algorithm.operation
        for op, _proc, predecessors, duration, out_deps, is_output, _ in rows:
            inputs: Dict[str, int] = {}
            for pred in predecessors:
                inputs[pred] = yield Wait(data[((pred, op), proc)])
            if not self._alive(proc):
                return
            start = sim.now
            yield Delay(duration)
            end = sim.now
            completed = self.scenario.alive_through(proc, start, end)
            self.trace.executions.append(
                ExecutionRecord(
                    op=op, processor=proc, start=start, end=end,
                    completed=completed,
                )
            )
            if not completed:
                return
            operation = operation_of(op)
            value = compute_value(
                op,
                operation.kind,
                inputs,
                initial_value=operation.initial_value or 0.0,
                iteration=self.iteration,
            )
            self._values[(op, proc)] = value
            # The data of op now exists locally: feed local consumers
            # and mark production for the communication units.
            for dep in out_deps:
                sim.fire(data[(dep, proc)], value)
            sim.fire(self._produced[(op, proc)])
            if is_output:
                self._record_output(op, proc, end, value)

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
    def _replica_sender(
        self, op: str, proc: str, out_deps: Tuple[DependencyKey, ...]
    ):
        """Send every outgoing dependency of ``op`` once produced.

        The comm side is time-triggered: sends are ordered by their
        planned release dates and emitted no earlier than them, which
        makes the failure-free run reproduce the planned communication
        schedule exactly, and so keeps the watchdog deadlines (anchored
        on the static frame ends) free of spurious elections.  Frames
        without a plan (take-over sends) are event-triggered instead.
        Solution-2 senders skip destinations their processor believes
        dead (the fail-flag array) — harmless when wrong, and the very
        mechanism that starves falsely-suspected processors on
        point-to-point links (Section 7.4).
        """
        yield Wait(self._produced[(op, proc)])
        if not self._alive(proc):
            return
        skip_flagged = self.schedule.semantics is ScheduleSemantics.SOLUTION2
        plans = []
        for dep in out_deps:
            dests = [d for d in self.plan.destinations[dep] if d != proc]
            if skip_flagged:
                dests = [d for d in dests if d not in self.flags[proc]]
            if not dests:
                continue
            release = self.plan.planned_release[(dep, proc)]
            plans.append((release if release is not None else self.sim.now,
                          dep, dests))
        plans.sort(key=lambda plan: (plan[0], plan[1]))
        for release, dep, dests in plans:
            if self.sim.now < release:
                yield Delay(release - self.sim.now)
            if not self._alive(proc):
                return
            self.network.dispatch(
                dep, proc, dests, payload=self._values.get((op, proc))
            )

    # ------------------------------------------------------------------
    # Communication units: Solution-1 watchdogs (Figure 12's OpComm)
    # ------------------------------------------------------------------
    def _watchdog(self, op: str, dep: DependencyKey, watcher: str):
        """One OpComm instance: watch the message of ``dep``, take over.

        Mirrors Figure 12: ``m`` starts at the main; flagged
        candidates are skipped without waiting; a timeout marks the
        candidate's unit failed and advances ``m``; if ``m`` reaches
        the watcher, it sends the result itself.
        """
        observed = self._observed[dep]
        for entry in self.plan.ladders[(op, dep, watcher)]:
            if not self._alive(watcher):
                return
            if entry.candidate in self.flags[watcher]:
                continue  # already known faulty: no wait (Figure 12)
            outcome = yield WaitAny(
                (observed,), deadline=entry.deadline + DEADLINE_SLACK
            )
            if not self._alive(watcher):
                return
            if outcome is not None:
                return  # a healthier candidate sent: nothing to do
            self._declare_faulty(op, watcher, entry.candidate)
        # Every earlier candidate is believed dead: the watcher is the
        # effective main for this message.
        if observed.fired:
            return
        yield Wait(self._produced[(op, watcher)])
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
        self.sim.fire(observed)

    def _declare_faulty(self, op: str, watcher: str, suspect: str) -> None:
        if suspect in self.flags[watcher]:
            return
        self.flags[watcher].add(suspect)
        self.trace.detections.append(
            DetectionRecord(op=op, watcher=watcher, suspect=suspect, time=self.sim.now)
        )
