"""Static timeout ladders for Solution 1 (paper Section 6.3).

Suppose operation ``o`` is replicated on processors ``p_0 .. p_K``
(``p_0`` main, ``p_1 .. p_K`` the backups in election order) and has an
outgoing dependency ``d``.  Each backup ``p_i`` runs, for the message
of ``d``, the ``OpComm`` watchdog of Figure 12: it waits for the send
of the current presumed main; when the timeout expires without a
frame, it marks that processor's communication unit as failed and
moves to the next candidate; when it becomes the presumed main itself
(``m = i``), it performs the send.

The paper computes each timeout "as the worst case upper-bound of the
message transmission delay" from the static schedule and the network
characteristics.  The report's formulas are only sketched (the
archived scan garbles them), so we use the following reconstruction
(DESIGN.md, reconstruction 3), a valid upper bound under the paper's
assumptions (fail-stop processors, no timing failures, static routes):

* ``deadline(i, 0)`` — the date by which the main's frame of ``d`` has
  certainly been observed: the *static end date of that frame in the
  schedule* plus a drain margin (the largest frame that other
  failures' take-over traffic may have put ahead of it).  The static
  plan is itself a worst-case execution (all durations are worst-case
  bounds and the link contention is part of the plan), so no healthy
  main can be later in a failure-free run — using anything less
  (e.g. the bare route transfer time) ignores bus queueing and causes
  spurious elections, the failure-detection mistakes of Section 6.1
  item 3.  The margin covers the common case of *other* processors'
  failures congesting the medium; pathological cascades can still
  produce a mistaken election, which costs only a duplicate frame
  (receivers are idempotent) — the trade-off Section 6.1 item 2
  discusses;
* ``ready(k)`` for ``k >= 1`` — candidate ``p_k`` sends only once its
  own ladder for ``d`` is exhausted and its replica has completed,
  hence ``ready(k) = max(completion(p_k), deadline(k, k - 1))``;
* ``deadline(i, k)`` — watcher ``p_i`` gives up on candidate ``p_k``
  at ``ready(k)`` plus the worst-case transmission delay of ``d``
  from ``p_k`` to ``p_i`` plus a drain margin (the largest single
  frame that may occupy each traversed link when the take-over send
  is requested).  Take-over traffic is not part of the static plan,
  so its contention can only be bounded, not planned.

The accumulation of ``deadline(i, k)`` over ``k`` is exactly the
"sum of timeouts amassed" the paper warns about for multiple failures
(Section 6.6); it is what the simulator reproduces in the transient
iteration of Figure 18(a).

Operations without successors (output extios) get no ladder: there is
no message to watch, and every replica performs the actuation itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..graphs.problem import Problem
from ..tolerance import approx_ge
from .schedule import ReplicaPlacement, Schedule, TimeoutEntry

__all__ = [
    "compute_timeout_table",
    "watch_bound",
    "minimal_timeout_table",
    "audit_timeout_table",
]

DependencyKey = Tuple[str, str]


def watch_bound(
    problem: Problem, dep: DependencyKey, sender: str, watcher: str
) -> float:
    """Worst-case delay for ``watcher`` to observe a take-over send.

    The bound is the contention-free route transfer time from
    ``sender`` plus, per traversed link, the largest single frame that
    may be draining when the send is requested (take-over traffic is
    not in the static plan, so only this drain margin bounds its
    queueing delay).
    """
    if sender == watcher:
        return 0.0
    comm = problem.communication
    route = problem.routing.route_for_dependency(sender, watcher, dep, comm)
    total = 0.0
    for link in route.links:
        total += comm.duration(dep, link)
        total += problem.largest_frame(link)
    return total


def _drain_margin(
    problem: Problem, dep: DependencyKey, sender: str, watcher: str
) -> float:
    """Largest single frame that may delay the watched message.

    Taken over the links of the static route from the watched sender
    to the watcher (on a single-bus architecture: the bus).
    """
    if sender == watcher:
        return 0.0
    comm = problem.communication
    route = problem.routing.route_for_dependency(sender, watcher, dep, comm)
    if not route.links:
        return 0.0
    return max(problem.largest_frame(link) for link in route.links)


def compute_timeout_table(
    problem: Problem,
    placement_order: Mapping[str, Sequence[ReplicaPlacement]],
    schedule: Schedule,
    drain_margin_frames: float = 1.0,
) -> List[TimeoutEntry]:
    """Compute every ``TimeoutEntry`` of a Solution-1 schedule.

    ``placement_order`` maps each operation to its replicas, main
    first (the scheduler's election order); ``schedule`` supplies the
    static frame end dates anchoring the rank-0 deadlines.  One ladder
    is produced per (operation, outgoing dependency, backup): the
    entries give for every earlier candidate ``p_k`` the absolute
    in-iteration date at which the backup declares ``p_k`` faulty for
    that message.

    Dependencies whose every consumer replica is co-located with a
    producer replica need no frame, hence no ladder (the comm is
    intra-processor).

    ``drain_margin_frames`` scales the congestion slack added to the
    rank-0 deadlines (in units of "largest frame on the route").  The
    default of one frame is the Section 6.1 item 2 compromise: 0 gives
    the tightest detection but risks spurious elections under
    failure-induced congestion; larger values slow the transient
    recovery.  The ablation benchmark sweeps this knob.
    """
    entries: List[TimeoutEntry] = []
    for op, replicas in placement_order.items():
        if len(replicas) < 2:
            continue
        for dep in problem.algorithm.out_dependencies(op):
            slots = schedule.comms_for_dependency(dep.key)
            if not slots:
                continue
            main_send_end = max(slot.end for slot in slots)
            entries.extend(
                _ladder_for(
                    problem, dep.key, replicas, main_send_end, drain_margin_frames
                )
            )
    return entries


def _ladder_for(
    problem: Problem,
    dep: DependencyKey,
    replicas: Sequence[ReplicaPlacement],
    main_send_end: float,
    drain_margin_frames: float = 1.0,
) -> List[TimeoutEntry]:
    op = dep[0]
    degree = len(replicas)
    completion = [replica.end for replica in replicas]
    procs = [replica.processor for replica in replicas]

    # deadline[(i, k)]: watcher i's give-up date on candidate k.
    deadline: Dict[Tuple[int, int], float] = {}
    ready: List[float] = [0.0] * degree
    for k in range(degree):
        if k == 0:
            # The static plan bounds the healthy main exactly in the
            # failure-free run; the drain margin absorbs congestion
            # from other operations' take-over traffic.
            ready[0] = main_send_end
            for i in range(1, degree):
                deadline[(i, 0)] = main_send_end + drain_margin_frames * (
                    _drain_margin(problem, dep, procs[0], procs[i])
                )
            continue
        # p_k itself waited on candidates 0..k-1 before sending, and
        # cannot send before having computed the operation.
        ready[k] = max(completion[k], deadline[(k, k - 1)])
        for i in range(k + 1, degree):
            bound = watch_bound(problem, dep, procs[k], procs[i])
            deadline[(i, k)] = ready[k] + bound

    entries = []
    for i in range(1, degree):
        for k in range(i):
            entries.append(
                TimeoutEntry(
                    op=op,
                    dependency=tuple(dep),
                    watcher=procs[i],
                    candidate=procs[k],
                    rank=k,
                    deadline=deadline[(i, k)],
                )
            )
    return entries


# ----------------------------------------------------------------------
# Soundness audit (used by the FT-lint timeout rule)
# ----------------------------------------------------------------------

LadderKey = Tuple[str, DependencyKey, str, int]


def minimal_timeout_table(schedule: Schedule) -> Dict[LadderKey, float]:
    """The tightest *sound* deadline for every ladder entry.

    Recomputed from the schedule itself with a zero drain margin: any
    deadline below this value can expire before the watched frame has
    certainly been observed, turning an ordinary slow transfer into a
    mistaken failure detection (the Section 6.1 item 3 hazard).  Keyed
    by ``(op, dependency, watcher, rank)``.
    """
    placement_order = {
        op: schedule.replicas(op) for op in schedule.operations
    }
    entries = compute_timeout_table(
        schedule.problem, placement_order, schedule, drain_margin_frames=0.0
    )
    return {
        (entry.op, entry.dependency, entry.watcher, entry.rank): entry.deadline
        for entry in entries
    }


def audit_timeout_table(
    schedule: Schedule,
) -> Tuple[List[Tuple[TimeoutEntry, float]], List[LadderKey]]:
    """Audit a Solution-1 schedule's stored ladder for soundness.

    Returns ``(short, missing)``:

    * ``short`` — stored entries whose deadline undercuts the minimal
      sound bound of :func:`minimal_timeout_table` (each paired with
      that bound): the watchdog can fire on a healthy main;
    * ``missing`` — ladder keys the schedule should carry but does not:
      the backup's watchdog skips that candidate without waiting and
      takes the message over even while the candidate is healthy.
    """
    minimal = minimal_timeout_table(schedule)
    stored: Dict[LadderKey, TimeoutEntry] = {
        (e.op, e.dependency, e.watcher, e.rank): e
        for e in schedule.timeouts
    }
    short = [
        (stored[key], bound)
        for key, bound in minimal.items()
        if key in stored and not approx_ge(stored[key].deadline, bound)
    ]
    missing = sorted(key for key in minimal if key not in stored)
    return short, missing
