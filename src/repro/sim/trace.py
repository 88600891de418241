"""Execution traces: what actually happened during a simulated iteration.

A trace is the dynamic counterpart of the static schedule: one record
per operation execution, per transmitted frame, and per failure
detection.  The paper's Figures 18 and 23 are drawings of such traces;
:mod:`repro.analysis.gantt` renders them the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "ExecutionRecord",
    "FrameRecord",
    "DetectionRecord",
    "IterationTrace",
]

DependencyKey = Tuple[str, str]


@dataclass(frozen=True)
class ExecutionRecord:
    """One operation replica actually executed by a processor."""

    op: str
    processor: str
    start: float
    end: float
    completed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        status = "" if self.completed else " (aborted by crash)"
        return f"{self.op}@{self.processor}[{self.start},{self.end}]{status}"


@dataclass(frozen=True)
class FrameRecord:
    """One frame put on a link.

    ``delivered`` is False when the sender crashed mid-transmission
    (fail-stop: the frame is lost).  ``takeover`` marks Solution-1
    frames emitted by a backup after a detection.
    """

    dependency: DependencyKey
    sender: str
    destinations: Tuple[str, ...]
    link: str
    start: float
    end: float
    delivered: bool
    takeover: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        flags = []
        if not self.delivered:
            flags.append("lost")
        if self.takeover:
            flags.append("takeover")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return (
            f"{self.dependency[0]}->{self.dependency[1]} "
            f"{self.sender}=>{','.join(self.destinations)} on {self.link}"
            f"[{self.start},{self.end}]{suffix}"
        )


@dataclass(frozen=True)
class DetectionRecord:
    """One failure detection: a watcher declaring a candidate dead."""

    op: str
    watcher: str
    suspect: str
    time: float

    def __str__(self) -> str:
        return (
            f"{self.watcher} declares {self.suspect} faulty for "
            f"{self.op!r} at {self.time}"
        )


@dataclass
class IterationTrace:
    """Everything observed during one simulated iteration."""

    scenario_name: str = ""
    executions: List[ExecutionRecord] = field(default_factory=list)
    frames: List[FrameRecord] = field(default_factory=list)
    detections: List[DetectionRecord] = field(default_factory=list)
    #: Outputs of the algorithm graph: first production date of each.
    output_times: Dict[str, float] = field(default_factory=dict)
    #: Functional payload of each produced output (first production).
    output_values: Dict[str, int] = field(default_factory=dict)
    #: Replica-consistency violations: descriptions of any replica that
    #: produced a value differing from the first one recorded (should
    #: always stay empty — replication is transparent).
    value_anomalies: List[str] = field(default_factory=list)
    #: Operation names of the algorithm's output interface.
    expected_outputs: Tuple[str, ...] = ()
    #: Fail flags as they stand when the iteration ends.
    final_known_failed: frozenset = frozenset()
    #: Each dependency's one-shot observe, as the protocol recorded it:
    #: ``dep -> (sender, date)`` of its first observable frame to
    #: complete (what a Solution-1 watchdog stands down on).
    observed: Dict[Tuple[str, str], Tuple[str, float]] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # Outcome measures
    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        """True when every output operation was produced."""
        return all(op in self.output_times for op in self.expected_outputs)

    @property
    def response_time(self) -> float:
        """Date at which the last output was (first) produced.

        ``inf`` when some output was never produced — the outcome the
        fault-tolerant schedules exist to prevent.
        """
        if not self.completed:
            return math.inf
        if not self.expected_outputs:
            return 0.0
        return max(self.output_times[op] for op in self.expected_outputs)

    @property
    def delivered_frame_count(self) -> int:
        """Frames actually delivered (the Section 6.4 message count)."""
        return sum(1 for frame in self.frames if frame.delivered)

    @property
    def makespan(self) -> float:
        """End of the last observable activity of the iteration."""
        dates = [r.end for r in self.executions if r.completed]
        dates.extend(f.end for f in self.frames if f.delivered)
        return max(dates) if dates else 0.0

    # ------------------------------------------------------------------
    # Convenient queries
    # ------------------------------------------------------------------
    def executions_on(self, processor: str) -> List[ExecutionRecord]:
        """Completed and aborted executions of one processor, by start."""
        rows = [r for r in self.executions if r.processor == processor]
        rows.sort(key=lambda r: r.start)
        return rows

    def frames_on(self, link: str) -> List[FrameRecord]:
        """Frames carried by one link, by start date."""
        rows = [f for f in self.frames if f.link == link]
        rows.sort(key=lambda f: f.start)
        return rows

    def executed_ops(self) -> Dict[str, List[str]]:
        """operation -> processors that completed it."""
        result: Dict[str, List[str]] = {}
        for record in self.executions:
            if record.completed:
                result.setdefault(record.op, []).append(record.processor)
        return result

    def takeover_frames(self) -> List[FrameRecord]:
        """Frames emitted by Solution-1 backups after detections."""
        return [f for f in self.frames if f.takeover]

    def summary(self) -> Dict[str, object]:
        """Plain-dict digest for reports."""
        return {
            "scenario": self.scenario_name,
            "completed": self.completed,
            "response_time": self.response_time,
            "executions": len(self.executions),
            "frames_sent": len(self.frames),
            "frames_delivered": self.delivered_frame_count,
            "detections": len(self.detections),
        }

    def __repr__(self) -> str:
        response = (
            f"{self.response_time:.3g}" if self.completed else "incomplete"
        )
        return (
            f"IterationTrace({self.scenario_name!r}, response={response}, "
            f"frames={self.delivered_frame_count})"
        )
