"""Solution 2: active replication of operations *and* communications.

Paper Section 7.  As in Solution 1, every operation is replicated on
``K + 1`` distinct processors.  The difference is in the comms: all
``K + 1`` replicas send their results in parallel to every replica of
every successor operation.  A consumer therefore receives each of its
inputs up to ``K + 1`` times; it executes as soon as the *first* copy
of every input is there and ignores the later ones.

Suppression rule (Section 7.1): consider the replica of ``o`` placed
on processor ``p`` and a predecessor ``o'``.  If one of the replicas
of ``o'`` is also on ``p``, the ``o' -> o`` comm toward ``p`` is *not*
replicated at all — it is a single intra-processor transfer.  (The
replicated comms toward ``p`` would only matter if ``p`` failed, but
then ``p``'s replica of ``o`` is dead anyway.)  Otherwise the comm is
replicated ``K + 1`` times, one send per replica of ``o'``.

No timeouts, no failure detection, no election: the response time
under failure is minimal and simultaneous failures are supported.  The
price is communication overhead, which is why this solution targets
point-to-point architectures where distinct links transfer in
parallel; on a bus every extra copy serializes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..graphs.problem import Problem
from .list_scheduler import ListScheduler, PlacementEvaluation
from .schedule import CommSlot, ReplicaPlacement, ScheduleSemantics

__all__ = ["Solution2Scheduler", "schedule_solution2"]


class Solution2Scheduler(ListScheduler):
    """The fault-tolerant heuristic of paper Figure 20."""

    semantics = ScheduleSemantics.SOLUTION2

    # ------------------------------------------------------------------
    # mSn.1 -- tentative evaluation of sigma(n)(o, p)
    # ------------------------------------------------------------------
    def evaluate_placement(
        self, op: str, proc: str, links: Set[str]
    ) -> PlacementEvaluation:
        """``S(n)(o, p)`` with the Section 7.2 twist: "the
        communication time computed for a predecessor is the minimum
        of the communication times with each replica of the
        predecessor".
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
                available = self._best_tentative_arrival(
                    pending, dep, pred, proc, links
                )
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

    def _best_tentative_arrival(
        self,
        pending: Dict[str, float],
        dep: Tuple[str, str],
        pred: str,
        proc: str,
        links: Set[str],
    ) -> float:
        """Earliest arrival of ``dep`` on ``proc`` over all senders.

        Each replica of the predecessor is probed without writing
        anything (the first of equal arrivals wins); the winner's link
        occupation is then applied to ``pending`` so later dependencies
        of the same evaluation see the contention it creates.
        """
        best = None
        for replica in self.placement_order[pred]:
            probe = self.planner.tentative_transfer(
                self.state, pending, dep, replica.processor, proc,
                replica.end, links,
            )
            if best is None or probe[0] < best[0]:
                best = probe
        assert best is not None
        arrival, held = best
        pending.update(held)
        return arrival

    # ------------------------------------------------------------------
    # mSn.3 -- commit on the K + 1 kept processors
    # ------------------------------------------------------------------
    def commit(
        self, op: str, kept: Sequence[PlacementEvaluation]
    ) -> Tuple[List[ReplicaPlacement], List[CommSlot]]:
        procs = [evaluation.processor for evaluation in kept]
        slots: List[CommSlot] = []

        # Replicated comms: every replica of every predecessor sends to
        # every kept processor lacking a local copy (earliest-finishing
        # senders first, so the first copy is in flight soonest).
        for dep, pred in self.input_sources(op):
            needy = [
                proc
                for proc in procs
                if self.state.local_copy_end(pred, proc) is None
            ]
            if not needy:
                continue
            senders = sorted(
                self.placement_order[pred], key=lambda r: (r.end, r.processor)
            )
            for sender in senders:
                dests = [proc for proc in needy if proc != sender.processor]
                if dests:
                    self.planner.broadcast(
                        self.state,
                        dep,
                        sender.processor,
                        dests,
                        ready=sender.end,
                        collect=slots,
                        sender_replica=sender.replica,
                    )

        # Place every replica; order by completion date (replica 0 is
        # merely the earliest finisher — Solution 2 has no election).
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


def schedule_solution2(problem: Problem, estimate_mode: str = "average"):
    """One-call convenience: run Solution 2 on ``problem``.

    Returns the :class:`~repro.core.list_scheduler.ScheduleResult`.
    """
    return Solution2Scheduler(problem, estimate_mode).run()
