"""The distributed real-time executive, interpreted over the simulator.

AAA's second step generates, from the static schedule, a distributed
executive: per processor, the computation unit runs its operation
sequence in static order (each operation blocking until its inputs are
locally available), and the communication units perform the sends,
receives and — for Solution 1 — the ``OpComm`` watchdogs of Figure 12.
Those behaviours, and the frames on serialized links, are written once
in :mod:`repro.sim.protocol`, which the prover's abstract run also
runs.  :class:`ExecutiveRuntime` is the protocol's concrete world: it
answers aliveness from a :class:`~repro.sim.faults.FailureScenario`
(link crashes included) and records the iteration's
:class:`~repro.sim.trace.IterationTrace` — executions, frames,
detections, functional values and output dates.  The schedule's
semantics select the behaviour:

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
no successor and is released at 0.  A checkpoint of a run resumes
under another scenario (:meth:`ExecutiveRuntime.restore`), which is
how the campaign runs each scenario from the failure-free run
(:class:`~repro.sim.runner.FailureFreePrefix`).

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

from ..core.executive_plan import OpRow, resolve_detection
from ..core.schedule import Schedule
from .faults import FailureScenario
from .protocol import DependencyKey, Protocol
from .trace import DetectionRecord, ExecutionRecord, FrameRecord, IterationTrace
from .values import compute_value

__all__ = ["ExecutiveRuntime"]

#: The trace's containers a checkpoint copies (its records are frozen).
_TRACE_COPIED = (
    "executions", "frames", "detections", "output_times", "output_values",
    "value_anomalies",
)


class ExecutiveRuntime(Protocol):
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

    _COPIED = Protocol._COPIED + ("payloads",)

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
        self._bind(scenario or FailureScenario.none())
        self.iteration = iteration
        self.detection, snoop_recovery = resolve_detection(
            schedule, detection, snoop_recovery
        )
        flags = dict.fromkeys(
            self.problem.architecture.processor_names,
            frozenset(self.scenario.known_failed),
        )
        for proc, known in (initial_flags or {}).items():
            flags[proc] = flags[proc].union(known)
        super().__init__(schedule, self.detection, snoop_recovery, flags)
        self.trace = IterationTrace(
            scenario_name=str(self.scenario),
            expected_outputs=self.plan.outputs,
        )
        #: The payload of each ``(dep, proc)`` arrival: the first copy wins.
        self.payloads: Dict[Tuple[DependencyKey, str], object] = {}

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
        follower.sim, follower.busy, follower.release = self.sim, self.busy, release
        self.follower = follower
        return follower

    def _bind(self, scenario: FailureScenario) -> None:
        """Run under ``scenario``: it answers the aliveness questions."""
        scenario.check_against(
            self.problem.architecture.processor_names,
            self.problem.architecture.link_names,
        )
        self.scenario = scenario
        self.alive_at = scenario.alive_at
        self.alive_through = scenario.alive_through

    def run(self) -> IterationTrace:
        """Start all processes, run to quiescence, return the trace."""
        self.start()
        return self.resume()

    def resume(self) -> IterationTrace:
        """Run the kernel to quiescence and return the trace."""
        self.sim.run()
        trace = self.trace
        trace.final_known_failed = frozenset().union(*self.flags.values())
        trace.observed = self.observed
        return trace

    # ------------------------------------------------------------------
    # Checkpoints (see Protocol.checkpoint)
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        trace = self.trace
        return super().checkpoint(), [
            getattr(trace, name).copy() for name in _TRACE_COPIED
        ]

    def restore(self, checkpoint: tuple, scenario: FailureScenario) -> None:
        """Go back to ``checkpoint`` (it stays valid) under ``scenario``.

        The run goes on in a fresh trace named after ``scenario`` that
        starts with the saved records, and ``scenario.known_failed`` is
        flagged everywhere.  :meth:`resume` then runs what ``scenario``
        would have run from this point, provided it answers every
        aliveness question asked before the checkpoint as the saved run
        did; a checkpoint taken before the first step (after
        :meth:`~repro.sim.protocol.Protocol.start`) fits every scenario.
        """
        saved, records = checkpoint
        super().restore(saved)
        self._bind(scenario)
        known = scenario.known_failed
        if known:
            self.flags = {proc: flags | known for proc, flags in self.flags.items()}
        self.trace = IterationTrace(
            scenario_name=str(scenario),
            expected_outputs=self.plan.outputs,
            **{name: value.copy() for name, value in zip(_TRACE_COPIED, records)},
        )

    # ------------------------------------------------------------------
    # The protocol's questions, answered by the scenario, and the trace
    # ------------------------------------------------------------------
    def _completes(self, row: OpRow, start: float, end: float) -> bool:
        """Record the execution; a completed one computes its value,
        the payload of every local arrival it feeds."""
        op, proc = row.op, row.processor
        completed = self.alive_through(proc, start, end)
        self.trace.executions.append(
            ExecutionRecord(
                op=op, processor=proc, start=start, end=end, completed=completed
            )
        )
        if completed:
            operation = self.problem.algorithm.operation(op)
            payloads = self.payloads
            value = compute_value(
                op,
                operation.kind,
                {pred: payloads[((pred, op), proc)] for pred in row.predecessors},
                initial_value=operation.initial_value or 0.0,
                iteration=self.iteration,
            )
            self.values[(op, proc)] = value
            for dep in row.out_deps:
                payloads.setdefault((dep, proc), value)
        return completed

    def _transmits(self, frame: tuple, start: float, end: float) -> bool:
        """Record the frame: delivered when its sender and its link stay
        up throughout the transmission."""
        dep, sender, dests, link, takeover = frame[:5]
        delivered = self.alive_through(
            sender, start, end
        ) and self.scenario.link_alive_through(link, start, end)
        self.trace.frames.append(
            FrameRecord(
                dependency=tuple(dep),
                sender=sender,
                destinations=dests,
                link=link,
                start=start,
                end=end,
                delivered=delivered,
                takeover=takeover,
            )
        )
        return delivered

    def _deliver(self, dep, dest, _sender, _takeover, payload) -> None:
        # First copy wins; redundant later copies are ignored by the
        # one-shot event semantics (the Solution-2 receive rule).
        self.payloads.setdefault((dep, dest), payload)
        self.sim.fire(self.data, (dep, dest))

    def _output(self, op: str, proc: str) -> None:
        """First production wins; replica disagreement is an anomaly."""
        trace, value, end = self.trace, self.values[(op, proc)], self.sim.now
        if op not in trace.output_values:
            trace.output_values[op] = value
        elif trace.output_values[op] != value:
            trace.value_anomalies.append(
                f"output {op!r} on {proc}: value {value} differs from the "
                f"first recorded {trace.output_values[op]}"
            )
        known = trace.output_times.get(op)
        if known is None or end < known:
            trace.output_times[op] = end

    def _detected(self, op: str, watcher: str, suspect: str) -> None:
        self.trace.detections.append(
            DetectionRecord(op=op, watcher=watcher, suspect=suspect, time=self.sim.now)
        )
