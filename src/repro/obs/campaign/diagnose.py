"""Trace-level failure diagnosis: *why* an iteration never completed.

When a fault-tolerant schedule fails a scenario, the interesting fact
is never "an assertion failed" — it is which surviving replica starved
waiting for which input, what happened to every replica that could
have sent that input, and which watchdog ladder entry should have
fired and didn't.  This module walks an
:class:`~repro.sim.trace.IterationTrace` against its static schedule
and produces exactly that account, as structured data
(:class:`Diagnosis`) and as readable text (:meth:`Diagnosis.render`).

The canonical consumer is the ROADMAP Solution-1 delivery gap: a
backup stands down on a takeover frame that is later lost
mid-transmission, so a survivor holds the data but never sends it.
Diagnosed, that renders as a sender-candidate list ("survivor holding
the data ... never sent") plus a never-fired ladder entry ("stood
down on the frame ..., which was LOST") instead of a bare falsified
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.trace import FrameRecord, IterationTrace

# The availability map ("earliest date each operation's data exists on
# each processor") is the same ground truth verify_trace checks
# causality against — sharing it keeps diagnosis and verification
# consistent by construction.
from ...sim.verify import _availability as availability_map

# The nominal-vs-fault differ and its stand-down forensics
# (repro.obs.causal is a sibling leaf of the obs tree: it imports
# core+sim only, so this edge is acyclic).
from ..causal.diff import LadderState, TraceDiff, diff_traces, ladder_states

__all__ = [
    "SenderCandidate",
    "MissingInput",
    "StarvedReplica",
    "Diagnosis",
    "diagnose",
]

DependencyKey = Tuple[str, str]


@dataclass
class SenderCandidate:
    """One replica that could have delivered a missing input."""

    processor: str
    replica: int
    produced_at: Optional[float]
    crashed_at: Optional[float]
    #: Human-readable account of what this candidate did (or couldn't).
    status: str
    #: Frames this candidate put on a link for the dependency.
    frames: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "processor": self.processor,
            "replica": self.replica,
            "produced_at": self.produced_at,
            "crashed_at": self.crashed_at,
            "status": self.status,
            "frames": list(self.frames),
        }


@dataclass
class MissingInput:
    """An input dependency that never reached a starved replica."""

    dependency: DependencyKey
    #: ``undelivered`` — produced somewhere, never carried to the
    #: consumer; ``unproduced`` — no replica ever completed the source
    #: operation (the gap is upstream).
    kind: str
    senders: List[SenderCandidate] = field(default_factory=list)
    ladder: List[LadderState] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dependency": list(self.dependency),
            "kind": self.kind,
            "senders": [s.to_dict() for s in self.senders],
            "ladder": [entry.to_dict() for entry in self.ladder],
        }


@dataclass
class StarvedReplica:
    """A surviving replica that never executed for lack of inputs."""

    op: str
    processor: str
    replica: int
    static_start: float
    static_end: float
    missing: List[MissingInput] = field(default_factory=list)
    #: Later operations on the same processor's static timeline that
    #: never executed because this replica blocks the computation unit.
    blocked_behind: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.op}@{self.processor}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "processor": self.processor,
            "replica": self.replica,
            "static_start": self.static_start,
            "static_end": self.static_end,
            "missing": [m.to_dict() for m in self.missing],
            "blocked_behind": list(self.blocked_behind),
        }


@dataclass
class Diagnosis:
    """The full account of one failing (or passing) iteration."""

    scenario: str
    completed: bool
    missing_outputs: List[str] = field(default_factory=list)
    starved: List[StarvedReplica] = field(default_factory=list)
    #: Operations with no completed execution anywhere (superset of the
    #: starved survivors' ops: includes ops whose every replica host
    #: crashed).
    never_executed: List[str] = field(default_factory=list)
    #: Nominal-vs-fault trace diff (present when a nominal trace was
    #: supplied): the first divergence and the causal frontier it
    #: poisons, rooting the starvation account in a concrete event.
    divergence: Optional[TraceDiff] = None

    @property
    def ok(self) -> bool:
        return self.completed and not self.starved

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "completed": self.completed,
            "missing_outputs": list(self.missing_outputs),
            "never_executed": list(self.never_executed),
            "starved": [replica.to_dict() for replica in self.starved],
            "divergence": (
                self.divergence.to_dict()
                if self.divergence is not None else None
            ),
        }

    def render(self) -> str:
        """The diagnosis as readable text (one line per fact)."""
        lines: List[str] = []
        if self.completed and not self.starved:
            lines.append(f"scenario {self.scenario}: iteration completed")
            return "\n".join(lines)
        if self.completed:
            lines.append(
                f"scenario {self.scenario}: iteration completed, but some "
                "surviving replicas starved"
            )
        else:
            lines.append(
                f"scenario {self.scenario}: iteration INCOMPLETE — outputs "
                f"never produced: {', '.join(self.missing_outputs) or '-'}"
            )
        if self.never_executed:
            lines.append(
                "operations never executed anywhere: "
                + ", ".join(self.never_executed)
            )
        for replica in self.starved:
            lines.append(
                f"starved replica {replica.label} (replica "
                f"#{replica.replica}, static "
                f"[{replica.static_start:g}, {replica.static_end:g}])"
            )
            for missing in replica.missing:
                src, dst = missing.dependency
                lines.append(
                    f"  input {src} -> {dst} never delivered to "
                    f"{replica.processor} ({missing.kind})"
                )
                if missing.senders:
                    lines.append("    sender candidates:")
                    for sender in missing.senders:
                        lines.append(
                            f"      - {src}@{sender.processor} (replica "
                            f"#{sender.replica}): {sender.status}"
                        )
                        for frame in sender.frames:
                            lines.append(f"          frame {frame}")
                if missing.ladder:
                    lines.append(
                        f"    timeout ladder for ({src}, {dst}):"
                    )
                    for entry in missing.ladder:
                        lines.append(f"      - {entry.describe()}")
            if replica.blocked_behind:
                lines.append(
                    f"  blocked behind it on {replica.processor}: "
                    + ", ".join(replica.blocked_behind)
                )
        if self.divergence is not None and not self.divergence.identical:
            lines.append(self.divergence.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
def diagnose(
    trace: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
    nominal: Optional[IterationTrace] = None,
) -> Diagnosis:
    """Explain why ``trace`` starved, in terms of the static schedule.

    With a ``nominal`` (fault-free) trace of the same schedule, the
    diagnosis also carries the nominal-vs-fault divergence account —
    which event first went wrong and the causal frontier it poisoned.
    """
    scenario = scenario or FailureScenario.none()
    available = availability_map(trace)
    completed_on = {
        (record.op, record.processor): record.end
        for record in trace.executions
        if record.completed
    }
    executed_ops = {op for op, _proc in completed_on}

    missing_outputs = [
        op for op in trace.expected_outputs if op not in trace.output_times
    ]
    never_executed = sorted(
        op for op in schedule.operations if op not in executed_ops
    )

    diagnosis = Diagnosis(
        scenario=trace.scenario_name or str(scenario),
        completed=trace.completed,
        missing_outputs=missing_outputs,
        never_executed=never_executed,
    )

    horizon = max(schedule.makespan, trace.makespan)
    for proc in sorted(schedule.problem.architecture.processor_names):
        if not scenario.alive_at(proc, horizon):
            continue  # dead processors starve legitimately
        timeline = schedule.processor_timeline(proc)
        for index, placement in enumerate(timeline):
            if (placement.op, proc) in completed_on:
                continue
            # First statically scheduled replica this survivor never
            # ran: the head-of-line blocker.  Everything after it on
            # the same computation unit is collateral.
            starved = StarvedReplica(
                op=placement.op,
                processor=proc,
                replica=placement.replica,
                static_start=placement.start,
                static_end=placement.end,
                blocked_behind=[
                    later.op for later in timeline[index + 1:]
                    if (later.op, proc) not in completed_on
                ],
            )
            algorithm = schedule.problem.algorithm
            for pred in algorithm.predecessors(placement.op):
                if available.get((pred, proc)) is not None:
                    continue
                dep = (pred, placement.op)
                kind = "undelivered" if pred in executed_ops else "unproduced"
                starved.missing.append(
                    MissingInput(
                        dependency=dep,
                        kind=kind,
                        senders=_sender_candidates(
                            dep, proc, trace, schedule, scenario, completed_on
                        ),
                        ladder=ladder_states(dep, trace, schedule, scenario),
                    )
                )
            if starved.missing:
                diagnosis.starved.append(starved)
            break  # only the head blocks; don't re-diagnose collateral

    if nominal is not None and nominal is not trace:
        diagnosis.divergence = diff_traces(
            nominal, trace, schedule, scenario
        )
    return diagnosis


def _frames_for(
    trace: IterationTrace, dep: DependencyKey, sender: str
) -> List[FrameRecord]:
    return [
        frame
        for frame in trace.frames
        if frame.dependency == dep and frame.sender == sender
    ]


def _sender_candidates(
    dep: DependencyKey,
    consumer_proc: str,
    trace: IterationTrace,
    schedule: Schedule,
    scenario: FailureScenario,
    completed_on: Dict[Tuple[str, str], float],
) -> List[SenderCandidate]:
    """What every replica of the missing input's source actually did."""
    src = dep[0]
    candidates: List[SenderCandidate] = []
    for placement in schedule.replicas(src):
        host = placement.processor
        crash = scenario.crash_of(host)
        crashed_at = crash.at if crash is not None else None
        produced_at = completed_on.get((src, host))
        frames = _frames_for(trace, dep, host)
        if produced_at is None:
            if crashed_at is not None:
                status = f"crashed at {crashed_at:g} before producing"
            else:
                status = "never produced (itself starved)"
        elif any(f.delivered and consumer_proc in f.destinations
                 for f in frames):
            status = (
                f"produced at {produced_at:g} and delivered to "
                f"{consumer_proc} (data arrived; the gap is elsewhere)"
            )
        elif frames:
            lost = [f for f in frames if not f.delivered]
            if lost and crashed_at is not None:
                kinds = "takeover " if any(f.takeover for f in lost) else ""
                status = (
                    f"produced at {produced_at:g}; {kinds}frame lost "
                    f"mid-transmission ({host} crashed at {crashed_at:g})"
                )
            else:
                status = (
                    f"produced at {produced_at:g}; sent, but never to "
                    f"{consumer_proc}"
                )
        else:
            if crashed_at is not None and not scenario.alive_at(
                host, max(produced_at, crashed_at)
            ):
                status = (
                    f"produced at {produced_at:g}, then crashed at "
                    f"{crashed_at:g} before sending"
                )
            else:
                status = (
                    f"SURVIVOR holding the data since {produced_at:g} "
                    "but never sent it"
                )
        candidates.append(
            SenderCandidate(
                processor=host,
                replica=placement.replica,
                produced_at=produced_at,
                crashed_at=crashed_at,
                status=status,
                frames=[str(frame) for frame in frames],
            )
        )
    return candidates
