"""The static distributed schedule produced by the heuristics.

A schedule records, per computation unit (processor), the totally
ordered sequence of operation *replicas* it executes and, per
communication link, the totally ordered sequence of *comms* (data
transfers) it carries — together with their start/end dates in time
units.  This is the object the paper's timing diagrams (Figures 14-19
and 22-24) draw.

Replicas
--------
For a fault-tolerance degree ``K`` every operation appears ``K + 1``
times, on ``K + 1`` distinct processors.  Replica 0 is the *main*
replica (the earliest-finishing one, Section 6.2 micro-step mSn.3);
replicas 1..K are *backups*, ordered by increasing completion date.
The baseline scheduler simply produces one replica per operation.

Comms
-----
A comm carries the data of one dependency from a sender processor to
one or more destination processors over one link (one slot per hop for
multi-hop routes).  On a bus a single slot can serve several
destinations at once (broadcast); on a point-to-point link the
destination set is a singleton.

The schedule also stores the Solution-1 timeout tables so the runtime
executive (and the reader of the schedule) can see the statically
computed worst-case take-over dates.  The executive's static plan
compiled from all of this is :attr:`Schedule.executive_plan`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graphs.problem import Problem
from ..tolerance import approx_le

__all__ = [
    "ScheduleError",
    "ScheduleSemantics",
    "ReplicaPlacement",
    "CommSlot",
    "Schedule",
]

DependencyKey = Tuple[str, str]


class ScheduleError(ValueError):
    """Raised when a schedule is malformed or misused."""


class ScheduleSemantics(enum.Enum):
    """How the runtime executive must interpret the schedule.

    ``BASELINE``
        Plain SynDEx: one replica per operation, one send per
        inter-processor dependency.  No fault tolerance.
    ``SOLUTION1``
        Paper Section 6: replicated operations, time-redundant comms.
        Only the main replica sends; backups watch and take over on
        timeout.
    ``SOLUTION2``
        Paper Section 7: replicated operations and comms.  All replicas
        send in parallel; receivers keep the first copy.
    """

    BASELINE = "baseline"
    SOLUTION1 = "solution1"
    SOLUTION2 = "solution2"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ReplicaPlacement:
    """One replica of an operation placed on a processor.

    ``replica`` is 0 for the main replica, 1..K for the backups in
    their statically fixed election order.
    """

    op: str
    processor: str
    start: float
    end: float
    replica: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ScheduleError(
                f"replica of {self.op!r} on {self.processor!r} ends "
                f"({self.end}) before it starts ({self.start})"
            )
        if self.replica < 0:
            raise ScheduleError("replica index must be >= 0")

    @property
    def is_main(self) -> bool:
        """True for the main (earliest-finishing, elected) replica."""
        return self.replica == 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        role = "main" if self.is_main else f"backup{self.replica}"
        return f"{self.op}@{self.processor}[{self.start},{self.end}]({role})"


@dataclass(frozen=True)
class CommSlot:
    """One data transfer scheduled on one link.

    Attributes
    ----------
    dependency:
        The (src_op, dst_op) data-dependency whose data is carried.
    sender:
        The processor whose communication unit emits the frame.
    destinations:
        The processors receiving the frame from this hop.  Several
        destinations are possible on a bus (broadcast).
    link:
        The carrying link.
    start, end:
        Occupation window of the link.
    sender_replica:
        Which replica of the source operation produced the data
        (always 0 for baseline/Solution-1 static slots).
    hop, route_length:
        Position of this slot within a multi-hop route.
    """

    dependency: DependencyKey
    sender: str
    destinations: Tuple[str, ...]
    link: str
    start: float
    end: float
    sender_replica: int = 0
    hop: int = 0
    route_length: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ScheduleError(
                f"comm {self.dependency} on {self.link!r} ends before start"
            )
        if not self.destinations:
            raise ScheduleError(
                f"comm {self.dependency} on {self.link!r} has no destination"
            )
        if self.sender in self.destinations:
            raise ScheduleError(
                f"comm {self.dependency} on {self.link!r} sends to itself"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def src_op(self) -> str:
        return self.dependency[0]

    @property
    def dst_op(self) -> str:
        return self.dependency[1]

    def __str__(self) -> str:
        dests = ",".join(self.destinations)
        return (
            f"{self.src_op}->{self.dst_op} {self.sender}=>{dests} "
            f"on {self.link}[{self.start},{self.end}]"
        )


@dataclass(frozen=True)
class TimeoutEntry:
    """One line of a Solution-1 timeout table.

    Backup processor ``watcher`` (one of the candidates for sending
    the data of ``op`` over dependency ``dependency``) gives up
    waiting for candidate ``candidate`` (the ``rank``-th in the
    election order) at absolute in-iteration date ``deadline`` (paper
    Section 6.3 — one ``OpComm`` watchdog per expected message).
    """

    op: str
    dependency: DependencyKey
    watcher: str
    candidate: str
    rank: int
    deadline: float


class Schedule:
    """A complete static distributed schedule.

    Instances are built by the schedulers through :meth:`add_replica` /
    :meth:`add_comm` and then frozen with :meth:`freeze` (which sorts
    the timelines, runs cheap structural checks and re-indexes the comm
    slots by dependency and by link in frozen order).  All query
    methods may be used on both frozen and in-construction schedules.
    """

    def __init__(self, problem: Problem, semantics: ScheduleSemantics) -> None:
        self.problem = problem
        self.semantics = semantics
        self._replicas: Dict[str, List[ReplicaPlacement]] = {}
        self._comms: List[CommSlot] = []
        self._timeouts: List[TimeoutEntry] = []
        self._frozen = False
        # The comm slots by dependency and by link, in insertion order
        # until freeze() rebuilds them in frozen order.
        self._comms_by_dependency: Dict[DependencyKey, List[CommSlot]] = {}
        self._comms_by_link: Dict[str, List[CommSlot]] = {}
        self._executive_plan = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_replica(self, placement: ReplicaPlacement) -> ReplicaPlacement:
        """Record one placed replica; replica indices must be unique."""
        self._assert_mutable()
        replicas = self._replicas.setdefault(placement.op, [])
        if any(r.replica == placement.replica for r in replicas):
            raise ScheduleError(
                f"operation {placement.op!r} already has a replica "
                f"#{placement.replica}"
            )
        if any(r.processor == placement.processor for r in replicas):
            raise ScheduleError(
                f"operation {placement.op!r} already has a replica on "
                f"{placement.processor!r}"
            )
        replicas.append(placement)
        replicas.sort(key=lambda r: r.replica)
        return placement

    def add_comm(self, slot: CommSlot) -> CommSlot:
        """Record one comm slot."""
        self._assert_mutable()
        self._comms.append(slot)
        self._comms_by_dependency.setdefault(slot.dependency, []).append(slot)
        self._comms_by_link.setdefault(slot.link, []).append(slot)
        return slot

    def add_timeout(self, entry: TimeoutEntry) -> TimeoutEntry:
        """Record one Solution-1 timeout-table line."""
        self._assert_mutable()
        self._timeouts.append(entry)
        return entry

    def freeze(self) -> "Schedule":
        """Sort timelines, run structural checks, and seal the schedule."""
        self._comms.sort(key=lambda c: (c.start, c.link, c.dependency))
        self._check_structure()
        # Restricted to one link, the (start, link, dependency) order is
        # the (start, dependency) order link_timeline promises.  The
        # indexes are rebuilt fresh, so freezing twice is harmless.
        by_dependency: Dict[DependencyKey, List[CommSlot]] = {}
        by_link: Dict[str, List[CommSlot]] = {}
        for slot in self._comms:
            by_dependency.setdefault(slot.dependency, []).append(slot)
            by_link.setdefault(slot.link, []).append(slot)
        self._comms_by_dependency = by_dependency
        self._comms_by_link = by_link
        self._frozen = True
        return self

    def _assert_mutable(self) -> None:
        if self._frozen:
            raise ScheduleError("schedule is frozen")

    # ------------------------------------------------------------------
    # Structural checks (cheap; full validation in repro.core.validate)
    # ------------------------------------------------------------------
    def _check_structure(self) -> None:
        for op, replicas in self._replicas.items():
            indices = sorted(r.replica for r in replicas)
            if indices != list(range(len(replicas))):
                raise ScheduleError(
                    f"operation {op!r} has replica indices {indices}, "
                    f"expected 0..{len(replicas) - 1}"
                )
        for slot in self._comms:
            link = self.problem.architecture.link(slot.link)
            if slot.sender not in link.endpoints:
                raise ScheduleError(
                    f"comm {slot}: sender not attached to link {slot.link!r}"
                )
            for dest in slot.destinations:
                if dest not in link.endpoints:
                    raise ScheduleError(
                        f"comm {slot}: destination {dest!r} not attached "
                        f"to link {slot.link!r}"
                    )

    # ------------------------------------------------------------------
    # Queries: replicas
    # ------------------------------------------------------------------
    @property
    def operations(self) -> List[str]:
        """Scheduled operation names, in placement order."""
        return list(self._replicas)

    def replicas(self, op: str) -> List[ReplicaPlacement]:
        """All replicas of ``op``, main first then backups in order."""
        try:
            return list(self._replicas[op])
        except KeyError:
            raise ScheduleError(f"operation {op!r} is not scheduled") from None

    def main_replica(self, op: str) -> ReplicaPlacement:
        """The main replica of ``op``."""
        return self.replicas(op)[0]

    def backup_replicas(self, op: str) -> List[ReplicaPlacement]:
        """The backups of ``op``, in election order."""
        return self.replicas(op)[1:]

    def replica_on(self, op: str, proc: str) -> Optional[ReplicaPlacement]:
        """The replica of ``op`` placed on ``proc``, if any."""
        for replica in self._replicas.get(op, ()):
            if replica.processor == proc:
                return replica
        return None

    def processors_of(self, op: str) -> List[str]:
        """Processors hosting a replica of ``op``, main first."""
        return [r.processor for r in self.replicas(op)]

    def all_replicas(self) -> List[ReplicaPlacement]:
        """Every placed replica, across all operations."""
        return [r for replicas in self._replicas.values() for r in replicas]

    def processor_timeline(self, proc: str) -> List[ReplicaPlacement]:
        """Replicas executed by ``proc``, sorted by start date."""
        rows = [r for r in self.all_replicas() if r.processor == proc]
        rows.sort(key=lambda r: (r.start, r.end, r.op))
        return rows

    # ------------------------------------------------------------------
    # Queries: comms
    # ------------------------------------------------------------------
    @property
    def comms(self) -> List[CommSlot]:
        """Every comm slot (sorted once frozen)."""
        return list(self._comms)

    def link_timeline(self, link: str) -> List[CommSlot]:
        """Comms carried by ``link``, sorted by start date (a frozen
        schedule's index is already in that order)."""
        rows = list(self._comms_by_link.get(link, ()))
        rows.sort(key=lambda c: (c.start, c.dependency))
        return rows

    def comms_for_dependency(self, dep: DependencyKey) -> List[CommSlot]:
        """All slots carrying the data of ``dep``, in :attr:`comms` order."""
        return list(self._comms_by_dependency.get(tuple(dep), ()))

    def inter_processor_message_count(self) -> int:
        """Number of link frames in the fault-free static schedule.

        This is the quantity the paper's Section 6.4 argues is minimal
        for Solution 1 (at most K + 1 frames per dependency).
        """
        return len(self._comms)

    # ------------------------------------------------------------------
    # Queries: timeouts
    # ------------------------------------------------------------------
    @property
    def timeouts(self) -> List[TimeoutEntry]:
        """The Solution-1 timeout table (empty for other semantics)."""
        return list(self._timeouts)

    def timeout_ladder(
        self, op: str, dep: DependencyKey, watcher: str
    ) -> List[TimeoutEntry]:
        """The watchdog ladder of one backup for one outgoing message."""
        rows = [
            t
            for t in self._timeouts
            if t.op == op and t.watcher == watcher and t.dependency == tuple(dep)
        ]
        rows.sort(key=lambda t: t.rank)
        return rows

    @property
    def executive_plan(self):
        """The :class:`~repro.core.executive_plan.ExecutivePlan` of this
        schedule, compiled on first access and kept once frozen."""
        from .executive_plan import ExecutivePlan

        if self._executive_plan is not None:
            return self._executive_plan
        plan = ExecutivePlan.compile(self)
        if self._frozen:
            self._executive_plan = plan
        return plan

    # ------------------------------------------------------------------
    # Global measures
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """End date of the latest activity: the iteration response time."""
        ends = [r.end for r in self.all_replicas()]
        ends.extend(c.end for c in self._comms)
        return max(ends) if ends else 0.0

    def meets_deadline(self) -> bool:
        """True when no deadline is set or the makespan honours it."""
        deadline = self.problem.deadline
        return deadline is None or approx_le(self.makespan, deadline)

    def processor_load(self, proc: str) -> float:
        """Total busy time of ``proc``'s computation unit."""
        return sum(r.duration for r in self.processor_timeline(proc))

    def link_load(self, link: str) -> float:
        """Total busy time of ``link``."""
        return sum(c.duration for c in self.link_timeline(link))

    def summary(self) -> Dict[str, object]:
        """Plain-dict digest used by reports and the CLI."""
        return {
            "semantics": self.semantics.value,
            "makespan": self.makespan,
            "operations": len(self._replicas),
            "replicas": len(self.all_replicas()),
            "messages": self.inter_processor_message_count(),
            "meets_deadline": self.meets_deadline(),
        }

    def __repr__(self) -> str:
        return (
            f"Schedule({self.semantics.value}, ops={len(self._replicas)}, "
            f"comms={len(self._comms)}, makespan={self.makespan:.3g})"
        )
