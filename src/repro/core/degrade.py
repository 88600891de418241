"""The post-failure ("subsequent") static schedule — Figure 18(b).

After one or more permanent failures have been detected, the system
settles into a degraded regime: the replicas hosted by dead processors
are gone, the surviving candidate with the smallest election rank acts
as main for each operation, and the comms are the (fewer) frames those
new mains emit.  The paper draws this regime as a static timing
diagram — Figure 18(b), "the permanent subsequent schedule" — and
argues in Section 6.4 that it carries *fewer* inter-processor
communications than the initial schedule.

:func:`degraded_schedule` computes that diagram: it replays the
original schedule's placement decisions (same operations on the same
surviving processors, same relative election order — the statically
agreed total order of candidates, Section 6.1 item 4), re-times
everything on the reduced machine, and recomputes the timeout ladders
for the operations that still have several replicas.

This is a *static* transformation: the dynamic counterpart (what
actually happens while the failure is being discovered) is
:mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..graphs.problem import Problem
from .schedule import (
    CommSlot,
    ReplicaPlacement,
    Schedule,
    ScheduleError,
    ScheduleSemantics,
)
from .timeline import CommPlanner, TimelineState
from .timeouts import compute_timeout_table

__all__ = ["degraded_schedule", "DegradationError"]


class DegradationError(ScheduleError):
    """Raised when the failure pattern defeats the schedule."""


def degraded_schedule(schedule: Schedule, failed: Iterable[str]) -> Schedule:
    """The subsequent-iteration static schedule after ``failed`` died.

    Works for ``SOLUTION1`` and ``SOLUTION2`` schedules (a ``BASELINE``
    schedule only survives the empty pattern).  Raises
    :class:`DegradationError` when some operation loses its last
    replica — the pattern was beyond the schedule's tolerance.
    """
    problem = schedule.problem
    failed_set = set(failed)
    unknown = failed_set - set(problem.architecture.processor_names)
    if unknown:
        raise DegradationError(f"unknown processors: {sorted(unknown)}")

    survivors = _surviving_placements(schedule, failed_set)
    planner = CommPlanner(problem)
    state = TimelineState.for_problem(problem)
    # Dead processors never become available again; parking their
    # frontier at infinity would be equivalent, but simply never
    # placing anything on them suffices because placements are fixed.

    degraded = Schedule(problem, schedule.semantics)
    order = _operation_order(schedule)
    placement_order: Dict[str, List[ReplicaPlacement]] = {}

    for op in order:
        replicas = survivors[op]
        slots: List[CommSlot] = []
        _plan_input_comms(
            schedule.semantics, problem, planner, state, placement_order,
            op, [r.processor for r in replicas], slots,
        )
        placements = _place(problem, state, op, replicas)
        placement_order[op] = placements
        for placement in placements:
            degraded.add_replica(placement)
        for slot in slots:
            degraded.add_comm(slot)

    if schedule.semantics is ScheduleSemantics.SOLUTION1:
        for entry in compute_timeout_table(problem, placement_order, degraded):
            degraded.add_timeout(entry)
    return degraded.freeze()


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------

def _surviving_placements(
    schedule: Schedule, failed: Set[str]
) -> Dict[str, List[ReplicaPlacement]]:
    """Replicas that survive, per operation, in election order."""
    survivors: Dict[str, List[ReplicaPlacement]] = {}
    for op in schedule.operations:
        alive = [
            replica
            for replica in schedule.replicas(op)
            if replica.processor not in failed
        ]
        if not alive:
            raise DegradationError(
                f"operation {op!r} loses all its replicas when "
                f"{sorted(failed)} fail"
            )
        survivors[op] = alive
    return survivors


def _operation_order(schedule: Schedule) -> List[str]:
    """Original scheduling (commit) order.

    ``Schedule.operations`` preserves placement insertion order, which
    is exactly the order the heuristic committed operations in — the
    order the append-only replay must follow to reproduce the original
    timeline when nothing failed.
    """
    return schedule.operations


def _plan_input_comms(
    semantics: ScheduleSemantics,
    problem: Problem,
    planner: CommPlanner,
    state: TimelineState,
    placement_order: Dict[str, List[ReplicaPlacement]],
    op: str,
    procs: List[str],
    slots: List[CommSlot],
) -> None:
    """Re-plan the frames feeding ``op``'s surviving replicas."""
    for pred in problem.algorithm.predecessors(op):
        dep = (pred, op)
        needy = [
            proc for proc in procs if state.local_copy_end(pred, proc) is None
        ]
        if not needy:
            continue
        senders = placement_order[pred]
        if semantics is ScheduleSemantics.SOLUTION2:
            for sender in sorted(senders, key=lambda r: (r.end, r.processor)):
                dests = [p for p in needy if p != sender.processor]
                if dests:
                    planner.broadcast(
                        state, dep, sender.processor, dests,
                        ready=sender.end, collect=slots,
                        sender_replica=sender.replica,
                    )
        else:
            main = senders[0]
            planner.broadcast(
                state, dep, main.processor, needy,
                ready=main.end, collect=slots,
            )


def _place(
    problem: Problem,
    state: TimelineState,
    op: str,
    survivors: List[ReplicaPlacement],
) -> List[ReplicaPlacement]:
    """Re-time the surviving replicas, keeping their election order.

    The election order among survivors is the statically agreed one
    (Section 6.1 item 4): the candidate list is known by everybody, so
    after a failure the smallest surviving rank is the main — even if
    another survivor would now finish earlier.
    """
    placements = []
    for index, survivor in enumerate(survivors):
        proc = survivor.processor
        ready = 0.0
        for pred in problem.algorithm.predecessors(op):
            available = state.data_available((pred, op), proc)
            assert available is not None, (pred, op, proc)
            ready = max(ready, available)
        start = max(state.proc_free[proc], ready)
        end = start + problem.execution.duration(op, proc)
        placement = ReplicaPlacement(
            op=op, processor=proc, start=start, end=end, replica=index
        )
        placements.append(placement)
        state.record_replica(op, proc, end)
    # Re-timing may break the end-date ordering the Schedule's
    # structural check expects only when the original order is kept by
    # fiat; the paper keeps the agreed order, so we relabel replica
    # indices by completion where needed while keeping the *main*
    # fixed (index 0).
    main, backups = placements[0], placements[1:]
    backups.sort(key=lambda r: (r.end, r.processor))
    relabeled = [main]
    for index, backup in enumerate(backups, start=1):
        relabeled.append(
            ReplicaPlacement(
                op=backup.op,
                processor=backup.processor,
                start=backup.start,
                end=backup.end,
                replica=index,
            )
        )
    return relabeled
