"""Timeline bookkeeping shared by the list-scheduling heuristics.

The SynDEx-style heuristics are *append-only* list schedulers: every
computation unit and every link keeps a frontier ("free from date t")
that only moves forward as operations and comms are appended.  This
module holds that mutable state plus the two communication-planning
primitives used by all three schedulers:

* :meth:`CommPlanner.transfer` — carry one dependency's data from one
  processor to another along the static route (one slot per hop);
* :meth:`CommPlanner.broadcast` — carry one dependency's data from one
  processor to several destinations sharing a bus in a single frame
  (what makes Solution 1 cheap on multi-point links).

The schedulers evaluate tentative placements (the ``S(n)(o, p)`` term
of the schedule pressure) on the committed state itself:
:meth:`CommPlanner.tentative_transfer` reads the committed link
frontiers through a small per-evaluation dict of tentative ones and
writes nothing to the state.  Routes, hops and frame choices are
static for a problem; the planner reads them from the problem's
:class:`~repro.graphs.routing.RoutingTable`, which memoizes them once
for every scheduler, the simulator and the prover.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.problem import Problem
from .schedule import CommSlot, Schedule

__all__ = [
    "TimelineState",
    "CommPlanner",
    "event_boundaries",
    "render_class_key",
    "window_index",
]

DependencyKey = Tuple[str, str]


def event_boundaries(schedule: Schedule) -> List[float]:
    """Every date at which the schedule's static plan changes state.

    The sorted, de-duplicated union of 0, every replica start/end,
    every comm-slot start/end, and every Solution-1 timeout deadline.
    Between two consecutive boundaries nothing statically scheduled
    begins, ends, or expires — so two crashes of the same processor
    inside one such window interrupt the very same set of in-flight
    activities.  The fault-injection campaign
    (:mod:`repro.obs.campaign`) builds its crash-time equivalence
    classes and critical instants on these windows.
    """
    dates = {0.0}
    for replica in schedule.all_replicas():
        dates.add(replica.start)
        dates.add(replica.end)
    for slot in schedule.comms:
        dates.add(slot.start)
        dates.add(slot.end)
    for entry in schedule.timeouts:
        dates.add(entry.deadline)
    return sorted(dates)


def window_index(boundaries: Sequence[float], time: float) -> int:
    """The event window of :func:`event_boundaries` that ``time`` falls into.

    Window ``i`` is ``[boundaries[i], boundaries[i+1])``; dates at or
    beyond the last boundary map to the final (open-ended) window.
    """
    if not boundaries:
        return 0
    return max(0, bisect_right(boundaries, time) - 1)


def render_class_key(key: Sequence[Tuple[str, int]]) -> str:
    """The spelling of a sorted (processor, window) crash class, shared
    by the campaign and the prover: ``P2@w3+P4@w0``."""
    if not key:
        return "failure-free"
    return "+".join(f"{proc}@w{window}" for proc, window in key)


@dataclass
class TimelineState:
    """The mutable frontier of a partial schedule.

    Attributes
    ----------
    proc_free:
        Per processor, the date from which its computation unit is
        idle.
    link_free:
        Per link, the date from which the medium is idle (the link
        arbiter serializes all comms, Section 4.3).
    dep_arrival:
        Per (dependency, processor), the date at which the
        dependency's data has arrived on that processor through a
        comm.  Used both to compute input readiness and to avoid
        resending data already delivered.
    replica_end:
        Per (operation, processor), the completion date of the replica
        of the operation hosted by the processor (if any) — the date
        from which the data is available *locally*.
    """

    proc_free: Dict[str, float] = field(default_factory=dict)
    link_free: Dict[str, float] = field(default_factory=dict)
    dep_arrival: Dict[Tuple[DependencyKey, str], float] = field(default_factory=dict)
    replica_end: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @classmethod
    def for_problem(cls, problem: Problem) -> "TimelineState":
        """A fresh (empty) state for ``problem``."""
        return cls(
            proc_free={p: 0.0 for p in problem.architecture.processor_names},
            link_free={l: 0.0 for l in problem.architecture.link_names},
        )

    def clone(self) -> "TimelineState":
        """A cheap independent copy (used for tentative evaluation)."""
        return TimelineState(
            proc_free=dict(self.proc_free),
            link_free=dict(self.link_free),
            dep_arrival=dict(self.dep_arrival),
            replica_end=dict(self.replica_end),
        )

    # ------------------------------------------------------------------
    # Local data availability
    # ------------------------------------------------------------------
    def local_copy_end(self, op: str, proc: str) -> Optional[float]:
        """Completion date of a replica of ``op`` on ``proc``, if any."""
        return self.replica_end.get((op, proc))

    def arrival(self, dep: DependencyKey, proc: str) -> Optional[float]:
        """Arrival date of ``dep``'s data on ``proc`` via a comm, if any."""
        return self.dep_arrival.get((tuple(dep), proc))

    def record_arrival(self, dep: DependencyKey, proc: str, date: float) -> None:
        """Record (or improve) the arrival of ``dep`` on ``proc``."""
        key = (tuple(dep), proc)
        known = self.dep_arrival.get(key)
        if known is None or date < known:
            self.dep_arrival[key] = date

    def record_replica(self, op: str, proc: str, end: float) -> None:
        """Record the completion date of ``op``'s replica on ``proc``."""
        self.replica_end[(op, proc)] = end
        self.proc_free[proc] = max(self.proc_free.get(proc, 0.0), end)

    def data_available(self, dep: DependencyKey, proc: str) -> Optional[float]:
        """Date from which ``dep``'s data is usable on ``proc``.

        The earliest of a local replica of the source operation and a
        delivered comm; ``None`` when the data is not (yet) reachable
        on ``proc`` without scheduling a new comm.
        """
        candidates = []
        local = self.local_copy_end(dep[0], proc)
        if local is not None:
            candidates.append(local)
        arrived = self.arrival(dep, proc)
        if arrived is not None:
            candidates.append(arrived)
        return min(candidates) if candidates else None


class CommPlanner:
    """Schedules comms onto links, honouring static routes.

    One planner per problem.  :meth:`transfer` and :meth:`broadcast`
    mutate the supplied :class:`TimelineState` and optionally append
    the created :class:`~repro.core.schedule.CommSlot` objects to
    ``collect``; :meth:`tentative_transfer` only reads it.  All three
    date their hops with the one store-and-forward walk of
    :meth:`_walk`.
    """

    def __init__(self, problem: Problem) -> None:
        self._routing = problem.routing
        self._comm = problem.communication

    def _bus_frame(
        self, dep: DependencyKey, sender: str, link: str
    ) -> Tuple[Tuple[str, str, str, float], ...]:
        """The one-hop plan of a frame of ``dep`` sent on bus ``link``
        (the walk reads only a hop's link and duration)."""
        return ((sender, sender, link, self._comm.duration(dep, link)),)

    @staticmethod
    def _walk(
        hops: Sequence[Tuple[str, str, str, float]],
        ready: float,
        link_free: Dict[str, float],
        pending: Dict[str, float],
    ) -> List[Tuple[float, float]]:
        """The ``(start, end)`` of each hop of a store-and-forward walk.

        Each hop occupies its link from ``max(data there, link free)``
        for the dependency's duration on that link.  A link is free from
        its ``pending`` (tentative) frontier when it has one, from its
        committed ``link_free`` one otherwise.  The walk writes nothing:
        a min-hop route never uses a link twice, so no hop can see a
        frontier an earlier hop of the same walk moved.
        """
        times = []
        date = ready
        for _hop_from, _hop_to, link, duration in hops:
            free = pending.get(link)
            if free is None:
                free = link_free.get(link, 0.0)
            start = max(date, free)
            date = start + duration
            times.append((start, date))
        return times

    # ------------------------------------------------------------------
    # Unicast transfer along the static route
    # ------------------------------------------------------------------
    def transfer(
        self,
        state: TimelineState,
        dep: DependencyKey,
        sender: str,
        dest: str,
        ready: float,
        collect: Optional[List[CommSlot]] = None,
        sender_replica: int = 0,
    ) -> float:
        """Carry ``dep`` from ``sender`` to ``dest``; return arrival date.

        ``ready`` is the date from which the data exists on
        ``sender``; the hops are dated by :meth:`_walk`.
        """
        if sender == dest:
            state.record_arrival(dep, dest, ready)
            return ready
        hops = self._routing.hop_plan(dep, sender, dest, self._comm)
        times = self._walk(hops, ready, state.link_free, {})
        for index, ((hop_from, hop_to, link, _duration), (start, end)) in (
            enumerate(zip(hops, times))
        ):
            state.link_free[link] = end
            if collect is not None:
                collect.append(
                    CommSlot(
                        dependency=tuple(dep),
                        sender=hop_from,
                        destinations=(hop_to,),
                        link=link,
                        start=start,
                        end=end,
                        sender_replica=sender_replica,
                        hop=index,
                        route_length=len(hops),
                    )
                )
        date = times[-1][1]
        state.record_arrival(dep, dest, date)
        return date

    # ------------------------------------------------------------------
    # Tentative transfer (placement evaluation)
    # ------------------------------------------------------------------
    def tentative_transfer(
        self,
        state: TimelineState,
        pending: Dict[str, float],
        dep: DependencyKey,
        sender: str,
        dest: str,
        ready: float,
        reads: Set[str],
        via_bus: bool = False,
    ) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        """Where :meth:`transfer` (or, with ``via_bus``, a one-destination
        :meth:`broadcast`) would deliver ``dep``, without committing it.

        Link frontiers come from ``pending`` (the caller's per-evaluation
        tentative frontiers) over ``state``'s committed ones; neither is
        written.  Every link consulted is added to ``reads``.  Returns
        the arrival date and the ``(link, new frontier)`` pairs the
        transfer would leave, which the caller applies to ``pending``
        (``pending.update(...)``) once it settles on this transfer.
        """
        if sender == dest:
            return ready, ()
        hops = None
        if via_bus:
            groups, _unicast = self._routing.frame_plan(
                dep, sender, (dest,), self._comm
            )
            if groups:
                hops = self._bus_frame(dep, sender, groups[0][0])
        if hops is None:
            hops = self._routing.hop_plan(dep, sender, dest, self._comm)
        times = self._walk(hops, ready, state.link_free, pending)
        held = tuple([(hop[2], end) for hop, (_start, end) in zip(hops, times)])
        reads.update([link for link, _end in held])
        return times[-1][1], held

    # ------------------------------------------------------------------
    # Broadcast on a shared bus
    # ------------------------------------------------------------------
    def broadcast(
        self,
        state: TimelineState,
        dep: DependencyKey,
        sender: str,
        dests: Sequence[str],
        ready: float,
        collect: Optional[List[CommSlot]] = None,
        sender_replica: int = 0,
    ) -> Dict[str, float]:
        """Carry ``dep`` from ``sender`` to each of ``dests``.

        Destinations sharing a bus with the sender are served by a
        single frame (multi-point links physically broadcast, paper
        Section 2.1) — unless a strictly faster dedicated route exists
        for them (see :meth:`~repro.graphs.routing.RoutingTable.frame_plan`);
        the rest fall back to unicast routed transfers.  Returns the
        arrival date per destination.
        """
        arrivals: Dict[str, float] = {d: ready for d in dests if d == sender}
        groups, unicast = self._routing.frame_plan(
            dep, sender, dests, self._comm
        )

        for link_name, served in groups:
            frame = self._bus_frame(dep, sender, link_name)
            ((start, end),) = self._walk(frame, ready, state.link_free, {})
            state.link_free[link_name] = end
            if collect is not None:
                collect.append(
                    CommSlot(
                        dependency=tuple(dep),
                        sender=sender,
                        destinations=tuple(served),
                        link=link_name,
                        start=start,
                        end=end,
                        sender_replica=sender_replica,
                    )
                )
            for dest in served:
                state.record_arrival(dep, dest, end)
                arrivals[dest] = end

        for dest in unicast:
            arrivals[dest] = self.transfer(
                state, dep, sender, dest, ready, collect, sender_replica
            )
        return arrivals
