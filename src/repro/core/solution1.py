"""Solution 1: active operation replication + time-redundant comms.

Paper Section 6.  Every operation is replicated on ``K + 1`` distinct
processors; among the replicas, the one with the earliest completion
date is the *main* replica.  Only the main replica sends its results —
one frame per data-dependency, broadcast on the bus — to every
processor executing a replica of a successor operation (except
processors already holding a local replica of the producer).  The ``K``
backup replicas execute the operation too, but stay silent: each
watches for the main's send and takes over, after a statically computed
timeout, if the main processor has crashed (Figure 12's ``OpComm``).

This module implements the scheduling heuristic of Figure 11.  The
timeout ladders attached to the schedule are computed in
:mod:`repro.core.timeouts`; the take-over behaviour itself is runtime
and lives in :mod:`repro.sim.executive`.

The heuristic is *best suited to multi-point (bus) architectures*:
on a bus the single frame of the main replica serves every destination
and is observable by every backup.  The scheduler still works on
point-to-point architectures (frames are routed per destination), but
the paper notes failure detection then amounts to Byzantine agreement —
Solution 2 is the right tool there.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..graphs.problem import Problem
from ..obs import TimeoutNote
from .list_scheduler import ListScheduler, PlacementEvaluation
from .schedule import CommSlot, ReplicaPlacement, Schedule, ScheduleSemantics
from .timeouts import compute_timeout_table

__all__ = ["Solution1Scheduler", "schedule_solution1"]


class Solution1Scheduler(ListScheduler):
    """The fault-tolerant heuristic of paper Figure 11.

    ``drain_margin_frames`` tunes the congestion slack of the timeout
    ladders (see :func:`repro.core.timeouts.compute_timeout_table`):
    0 gives the tightest detection at the price of possible spurious
    elections, larger values slow the transient recovery — the
    trade-off the paper discusses in Section 6.1 item 2.
    """

    semantics = ScheduleSemantics.SOLUTION1

    def __init__(self, *args, drain_margin_frames: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.drain_margin_frames = drain_margin_frames

    # ------------------------------------------------------------------
    # mSn.1 -- tentative evaluation of sigma(n)(o, p)
    # ------------------------------------------------------------------
    def evaluate_placement(
        self, op: str, proc: str, links: Set[str]
    ) -> PlacementEvaluation:
        """``S(n)(o, p)``: inputs come from the predecessors' *main*
        replicas (Section 6.2: "S takes into account the communication
        times between o and the main processor of its predecessors"),
        or from a local replica when ``proc`` hosts one.
        """
        with self.obs.span("pressure.eval", op=op, proc=proc):
            return self._evaluate_placement(op, proc, links)

    def _evaluate_placement(
        self, op: str, proc: str, links: Set[str]
    ) -> PlacementEvaluation:
        state = self.state
        # Link frontiers this evaluation's earlier inputs would move.
        pending: Dict[str, float] = {}
        ready = 0.0
        for dep, pred in self.input_sources(op):
            available = state.data_available(dep, proc)
            if available is None:
                main = self.placement_order[pred][0]
                available, held = self.planner.tentative_transfer(
                    state, pending, dep, main.processor, proc, main.end,
                    links, via_bus=True,
                )
                pending.update(held)
            ready = max(ready, available)
        duration = self.execution_duration(op, proc)
        start = self.earliest_start(proc, ready, duration)
        return PlacementEvaluation(
            op=op,
            processor=proc,
            start=start,
            end=start + duration,
            pressure=self.prepass.pressure(op, start, duration),
        )

    # ------------------------------------------------------------------
    # mSn.3 -- commit on the K + 1 kept processors
    # ------------------------------------------------------------------
    def commit(
        self, op: str, kept: Sequence[PlacementEvaluation]
    ) -> Tuple[List[ReplicaPlacement], List[CommSlot]]:
        procs = [evaluation.processor for evaluation in kept]
        slots: List[CommSlot] = []

        # One frame per input dependency, from the predecessor's main
        # replica, serving every kept processor that has no local copy.
        # On a bus this is a single broadcast; elsewhere it degrades to
        # routed unicasts (see CommPlanner.broadcast).
        for dep, pred in self.input_sources(op):
            main = self.placement_order[pred][0]
            needy = [
                proc
                for proc in procs
                if self.state.data_available(dep, proc) is None
            ]
            if needy:
                self.planner.broadcast(
                    self.state, dep, main.processor, needy, ready=main.end,
                    collect=slots,
                )

        # Place every replica; elect the earliest-finishing one as main
        # and order the backups by increasing completion date.
        drafts = []
        for proc in procs:
            ready = 0.0
            for dep, _pred in self.input_sources(op):
                available = self.state.data_available(dep, proc)
                assert available is not None, (dep, proc)
                ready = max(ready, available)
            duration = self.execution_duration(op, proc)
            start = self.earliest_start(proc, ready, duration)
            drafts.append((start + duration, start, proc))
        drafts.sort()

        placements = []
        for index, (end, start, proc) in enumerate(drafts):
            placement = ReplicaPlacement(
                op=op, processor=proc, start=start, end=end, replica=index
            )
            placements.append(placement)
            self.state.record_replica(op, proc, end)
            self.note_placement(placement)
        self.placement_order[op] = placements
        return placements, slots

    # ------------------------------------------------------------------
    # Post-pass: the static timeout ladders of Figure 12
    # ------------------------------------------------------------------
    def finalize(self, schedule: Schedule) -> None:
        with self.obs.span("timeouts.compute"):
            entries = compute_timeout_table(
                self.problem,
                self.placement_order,
                schedule,
                drain_margin_frames=self.drain_margin_frames,
            )
        for entry in entries:
            schedule.add_timeout(entry)
            # Mirror the table into the decision log so `repro explain`
            # can show the watchdog ladder behind each placement.
            self.decisions.timeouts.append(
                TimeoutNote(
                    op=entry.op,
                    dependency=entry.dependency,
                    watcher=entry.watcher,
                    candidate=entry.candidate,
                    rank=entry.rank,
                    deadline=entry.deadline,
                )
            )
        self.obs.count("timeouts.entries", len(entries))


def schedule_solution1(problem: Problem, estimate_mode: str = "average"):
    """One-call convenience: run Solution 1 on ``problem``.

    Returns the :class:`~repro.core.list_scheduler.ScheduleResult`.
    """
    return Solution1Scheduler(problem, estimate_mode).run()
