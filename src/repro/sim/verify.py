"""Runtime-trace verification: sanity invariants on what was simulated.

The static validator (:mod:`repro.core.validate`) proves the *plan*;
this module proves the *run*.  It asserts, on an
:class:`~repro.sim.trace.IterationTrace`, the physical invariants the
executive must never break — whatever the failure scenario:

* a computation unit executes one operation at a time;
* a link carries one frame at a time;
* nobody computes or transmits while dead;
* an executed operation had all its inputs on its processor before it
  started (local production or a delivered frame);
* every transmitted frame carries data its sender actually held.

The test suite runs these checks across random workloads and random
failure scenarios; they are also useful to users extending the
executive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.schedule import Schedule
from ..tolerance import EPSILON
from .faults import FailureScenario
from .trace import IterationTrace

__all__ = ["TraceViolation", "TraceReport", "verify_trace"]


@dataclass(frozen=True)
class TraceViolation:
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class TraceReport:
    violations: List[TraceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, message: str) -> None:
        self.violations.append(TraceViolation(rule, message))

    def raise_if_invalid(self) -> None:
        if not self.ok:
            details = "\n".join(str(v) for v in self.violations)
            raise AssertionError(f"invalid trace:\n{details}")


def verify_trace(
    trace: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
) -> TraceReport:
    """Check the physical invariants of one simulated iteration."""
    scenario = scenario or FailureScenario.none()
    report = TraceReport()
    _check_processor_exclusivity(trace, report)
    _check_link_exclusivity(trace, report)
    _check_aliveness(trace, scenario, report)
    available = _availability(trace)
    _check_input_causality(trace, schedule, available, report)
    _check_sender_possession(trace, available, report)
    return report


def _check_processor_exclusivity(trace: IterationTrace, report: TraceReport) -> None:
    procs = {r.processor for r in trace.executions}
    for proc in procs:
        rows = trace.executions_on(proc)
        for first, second in zip(rows, rows[1:]):
            if first.end > second.start + EPSILON:
                report.add(
                    "processor-overlap",
                    f"{proc}: {first} overlaps {second}",
                )


def _check_link_exclusivity(trace: IterationTrace, report: TraceReport) -> None:
    links = {f.link for f in trace.frames}
    for link in links:
        rows = trace.frames_on(link)
        for first, second in zip(rows, rows[1:]):
            if first.end > second.start + EPSILON:
                report.add(
                    "link-overlap",
                    f"{link}: {first} overlaps {second}",
                )


def _check_aliveness(
    trace: IterationTrace, scenario: FailureScenario, report: TraceReport
) -> None:
    for record in trace.executions:
        if record.completed and not scenario.alive_through(
            record.processor, record.start, record.end
        ):
            report.add(
                "dead-computation",
                f"{record} completed although its processor was dead",
            )
    for frame in trace.frames:
        if frame.delivered and not scenario.alive_through(
            frame.sender, frame.start, frame.end
        ):
            report.add(
                "dead-transmission",
                f"{frame} delivered although its sender was dead",
            )


def _availability(trace: IterationTrace) -> Dict[Tuple[str, str], float]:
    """Earliest date each operation's data exists on each processor."""
    available: Dict[Tuple[str, str], float] = {}

    def offer(op: str, proc: str, date: float) -> None:
        key = (op, proc)
        if key not in available or date < available[key]:
            available[key] = date

    for record in trace.executions:
        if record.completed:
            offer(record.op, record.processor, record.end)
    for frame in trace.frames:
        if frame.delivered:
            for dest in frame.destinations:
                offer(frame.dependency[0], dest, frame.end)
    return available


def _check_input_causality(
    trace: IterationTrace,
    schedule: Schedule,
    available: Dict[Tuple[str, str], float],
    report: TraceReport,
) -> None:
    algorithm = schedule.problem.algorithm
    for record in trace.executions:
        for pred in algorithm.predecessors(record.op):
            date = available.get((pred, record.processor))
            if date is None:
                report.add(
                    "input-causality",
                    f"{record}: input {pred!r} never reached "
                    f"{record.processor}",
                )
            elif date > record.start + EPSILON:
                report.add(
                    "input-causality",
                    f"{record}: started before input {pred!r} arrived "
                    f"({date} > {record.start})",
                )


def _check_sender_possession(
    trace: IterationTrace,
    available: Dict[Tuple[str, str], float],
    report: TraceReport,
) -> None:
    for frame in trace.frames:
        date = available.get((frame.dependency[0], frame.sender))
        if date is None:
            report.add(
                "sender-possession",
                f"{frame}: sender never held the data",
            )
        elif date > frame.start + EPSILON:
            report.add(
                "sender-possession",
                f"{frame}: transmitted before holding the data "
                f"({date} > {frame.start})",
            )
