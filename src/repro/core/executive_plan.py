"""The compiled executive plan: the static half of a schedule's executive.

AAA compiles the static schedule into a distributed executive
(Sections 6.1-6.3, Figure 12).  What that executive fixes before run
time is computed here once per frozen schedule, memoized as
:attr:`Schedule.executive_plan <repro.core.schedule.Schedule.executive_plan>`:
who must receive each dependency over the network (consumer hosts
without a producer replica, Sections 6.1 and 7.1), its planned
senders, the release date of each replica host's planned frame, and
for Solution 1 the rank-ordered ``OpComm`` ladders and the watchdog
spawn order.  It also holds each processor's op rows (the replicas
it runs in static order, with their inputs, duration and outgoing
dependencies) and the ordered list of planned sender replicas, so no
run of the executive asks the algorithm graph again.

Failure detection follows the medium, so the plan fixes it too.  On a
bus every member physically sees every frame: Solution 1's backups
snoop it (Section 6.1), and only bus frames are observed (``snoop``).
Without a bus nobody sees a remote frame; the paper says detection
there "is similar to a Byzantine agreement problem", and the plan
idealizes that agreement as every completed frame being observed
(``oracle``).  Snooping a frame from a flagged processor clears its
flag (Section 6.1 item 3) for Solution 1 on a single bus.

The simulated executive, the pipeline, the prover's delivery
automaton, the macro-code generator and the critical path all read
this one plan; :data:`DEADLINE_SLACK` is the run-time setting the
simulator and the prover share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .schedule import ReplicaPlacement, Schedule, ScheduleSemantics

__all__ = [
    "DEADLINE_SLACK",
    "LadderRung",
    "OpRow",
    "ExecutivePlan",
]

DependencyKey = Tuple[str, str]
WatchKey = Tuple[str, DependencyKey, str]

#: Arrival exactly at the worst-case bound is timely: a watchdog fires
#: strictly after its rung's deadline (Section 6.1 item 2 computes the
#: bound as the least value avoiding spurious elections).  A rung reads
#: the one-shot observe at ``deadline + DEADLINE_SLACK``; a frame that
#: completes at exactly that date stands it down when the frame's
#: completion entered the kernel before the rung's deadline did (the
#: kernel's sequence order breaks the tie), and otherwise the rung times
#: out.
DEADLINE_SLACK = 1e-9


@dataclass(frozen=True)
class LadderRung:
    """One timeout-ladder entry: watch ``candidate`` until ``deadline``."""

    candidate: str
    rank: int
    deadline: float


class OpRow(NamedTuple):
    """One replica in its processor's static sequence (a tuple, so the
    executive's inner loops unpack it without attribute lookups)."""

    op: str
    processor: str
    #: Producers of the op's inputs, sorted.
    predecessors: Tuple[str, ...]
    duration: float
    #: Keys of the op's outgoing dependencies, by consumer name.
    out_deps: Tuple[DependencyKey, ...]
    #: True when the op is an output of the algorithm.
    is_output: bool
    placement: ReplicaPlacement


@dataclass(frozen=True)
class ExecutivePlan:
    """The static executive of one schedule (see the module docstring)."""

    #: Consumers that need the dependency over the network, sorted.
    destinations: Dict[DependencyKey, Tuple[str, ...]]
    #: Statically scheduled senders (rank 0, or all ranks for Solution 2).
    planned_senders: Dict[DependencyKey, Tuple[str, ...]]
    planned_release: Dict[Tuple[DependencyKey, str], Optional[float]]
    #: (op, dep, watcher) -> rungs in rank order; the watcher takes over
    #: after its last rung, unless an observed frame stood it down.
    ladders: Dict[WatchKey, Tuple[LadderRung, ...]]
    #: Watchdog spawn order.
    watch_order: Tuple[WatchKey, ...]
    #: Per processor (every one of the architecture), its op rows in
    #: static order.
    timelines: Dict[str, Tuple[OpRow, ...]]
    #: The planned sender replicas in spawn order: per scheduled op,
    #: its main replica, or every replica for Solution 2.  Spawn order
    #: fixes the simulator's sequence numbers.
    senders: Tuple[OpRow, ...]
    #: The algorithm's outputs, in algorithm order.
    outputs: Tuple[str, ...]
    #: Link -> whether a completed frame on it fires the one-shot
    #: observe: every link without a bus, else exactly the buses.
    observable: Dict[str, bool]
    #: True when a snooped frame from a flagged processor clears its
    #: flag everywhere (Solution 1 on a single bus).
    snoop_recovery: bool
    #: ``"snoop"`` (the architecture has a bus) or ``"oracle"``.
    detection: str

    @classmethod
    def compile(cls, schedule: Schedule) -> "ExecutivePlan":
        """Compute the plan of ``schedule`` (use the memoized
        :attr:`Schedule.executive_plan` instead of calling this)."""
        problem = schedule.problem
        algorithm = problem.algorithm
        semantics = schedule.semantics
        destinations, planned_senders, planned_release = {}, {}, {}
        hosts = {op: schedule.processors_of(op) for op in schedule.operations}
        # Who sends an op's data: every replica under Solution 2, the
        # main replica otherwise.
        sending = {
            op: tuple(procs if semantics is ScheduleSemantics.SOLUTION2 else procs[:1])
            for op, procs in hosts.items()
        }
        out_deps = {
            op: tuple(dep.key for dep in algorithm.out_dependencies(op))
            for op in hosts
        }
        for op, procs in hosts.items():
            for key in out_deps[op]:
                src, dst = key
                destinations[key] = tuple(sorted(
                    proc
                    for proc in schedule.processors_of(dst)
                    if schedule.replica_on(src, proc) is None
                ))
                planned_senders[key] = sending[op]
                slots = schedule.comms_for_dependency(key)
                for sender in procs:
                    starts = [
                        slot.start
                        for slot in slots
                        if slot.hop == 0 and slot.sender == sender
                    ]
                    planned_release[(key, sender)] = min(starts) if starts else None

        ladders: Dict[WatchKey, Tuple[LadderRung, ...]] = {}
        watch_order: List[WatchKey] = []
        if semantics is ScheduleSemantics.SOLUTION1:
            entries: Dict[WatchKey, list] = {}  # timeout entries, table order
            for entry in schedule.timeouts:
                key = (entry.op, entry.dependency, entry.watcher)
                entries.setdefault(key, []).append(entry)
            for op, procs in hosts.items():
                for backup in procs[1:]:
                    for dep in out_deps[op]:
                        if not destinations[dep]:
                            # Every consumer replica holds a local copy:
                            # no message to watch, no OpComm.
                            continue
                        key = (op, dep, backup)
                        ranked = sorted(entries.get(key, ()), key=lambda e: e.rank)
                        ladders[key] = tuple(
                            LadderRung(e.candidate, e.rank, e.deadline) for e in ranked
                        )
                        watch_order.append(key)

        outputs = tuple(algorithm.outputs)
        output_set = set(outputs)
        rows: Dict[Tuple[str, str], OpRow] = {}
        timelines: Dict[str, Tuple[OpRow, ...]] = {}
        for proc in problem.architecture.processor_names:
            timeline = []
            for placement in schedule.processor_timeline(proc):
                op = placement.op
                row = rows[(op, proc)] = OpRow(
                    op,
                    proc,
                    tuple(algorithm.predecessors(op)),
                    problem.execution.duration(op, proc),
                    out_deps[op],
                    op in output_set,
                    placement,
                )
                timeline.append(row)
            timelines[proc] = tuple(timeline)
        architecture = problem.architecture
        has_bus = architecture.has_bus
        return cls(
            destinations=destinations,
            planned_senders=planned_senders,
            planned_release=planned_release,
            ladders=ladders,
            watch_order=tuple(watch_order),
            timelines=timelines,
            senders=tuple(
                rows[(op, proc)] for op, procs in sending.items() for proc in procs
            ),
            outputs=outputs,
            observable={
                link: not has_bus or architecture.link(link).is_bus
                for link in architecture.link_names
            },
            snoop_recovery=(
                semantics is ScheduleSemantics.SOLUTION1
                and architecture.is_single_bus
            ),
            detection="snoop" if has_bus else "oracle",
        )
