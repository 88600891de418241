"""Schedule lints (FT2xx): audit a produced static schedule.

The well-formedness rules (FT201-FT210) reuse the checker functions of
:mod:`repro.core.validate` — one implementation, re-tagged with stable
lint IDs so suppressions and CI baselines survive refactors of the
validator.  On top of those, this pack adds the fault-tolerance
audits the validator does not gate on:

* FT211 proves every stored Solution-1 timeout at least as large as
  the worst-case communication bound recomputed from
  :mod:`repro.core.timeouts` (an undercut watchdog can declare a
  healthy main dead — the Section 6.1 item 3 mistake);
* FT212 replays the exhaustive failure-pattern certification and
  reports each pattern that loses an operation;
* FT213 checks the real-time constraint;
* FT214/FT215 are advisories: idle gaps and overhead vs. the makespan
  lower bound.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from ..core.schedule import Schedule, ScheduleSemantics
from ..core.timeouts import audit_timeout_table
from ..core.validate import (
    ValidationReport,
    _check_coverage,
    _check_election_order,
    _check_exclusive_links,
    _check_exclusive_processors,
    _check_placements,
    _check_replica_inputs,
    _check_slot_senders,
    _check_solution1_senders,
    _check_solution2_replication,
    certify_fault_tolerance,
)
from ..tolerance import approx_le
from .model import Diagnostic, Severity
from .registry import Scope, rule

__all__ = []  # rules register themselves; nothing to import directly

Finding = Tuple[str, str]

#: Advisory thresholds (fractions of the makespan / lower bound).
IDLE_GAP_FRACTION = 0.35
OVERHEAD_RATIO = 1.5


def _via_validator(
    schedule: Schedule,
    check: Callable[[Schedule, ValidationReport], None],
) -> Iterator[Finding]:
    """Run one validator sub-check and yield its findings."""
    report = ValidationReport()
    check(schedule, report)
    for violation in report.violations:
        yield (violation.message, violation.subject)


@rule(
    "FT201",
    "coverage",
    Severity.ERROR,
    Scope.SCHEDULE,
    "every operation is scheduled with the right replication degree",
)
def check_coverage(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_coverage)


@rule(
    "FT202",
    "replica-anti-affinity",
    Severity.ERROR,
    Scope.SCHEDULE,
    "replicas of one operation must sit on distinct processors",
)
def check_anti_affinity(schedule: Schedule) -> Iterator[Finding]:
    for op in schedule.operations:
        procs = [r.processor for r in schedule.replicas(op)]
        seen = set()
        for proc in procs:
            if proc in seen:
                yield (
                    f"operation {op!r} has several replicas on {proc!r}: "
                    f"one processor failure kills more than one replica",
                    op,
                )
            seen.add(proc)


@rule(
    "FT203",
    "processor-overlap",
    Severity.ERROR,
    Scope.SCHEDULE,
    "a computation unit executes one operation at a time",
)
def check_processor_overlap(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_exclusive_processors)


@rule(
    "FT204",
    "link-overlap",
    Severity.ERROR,
    Scope.SCHEDULE,
    "a link carries one comm at a time",
)
def check_link_overlap(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_exclusive_links)


@rule(
    "FT205",
    "causality",
    Severity.ERROR,
    Scope.SCHEDULE,
    "every replica's inputs arrive before it starts",
)
def check_causality(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_replica_inputs)


@rule(
    "FT206",
    "sender-liveness",
    Severity.ERROR,
    Scope.SCHEDULE,
    "a comm slot's sender must hold the data it sends",
)
def check_sender_liveness(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_slot_senders)


@rule(
    "FT207",
    "placement-constraints",
    Severity.ERROR,
    Scope.SCHEDULE,
    "placements respect the execution table (capability and duration)",
)
def check_placements(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_placements)


@rule(
    "FT208",
    "election-order",
    Severity.ERROR,
    Scope.SCHEDULE,
    "replica election order follows completion dates",
)
def check_election_order(schedule: Schedule) -> Iterator[Finding]:
    return _via_validator(schedule, _check_election_order)


@rule(
    "FT209",
    "solution1-sender",
    Severity.ERROR,
    Scope.SCHEDULE,
    "in Solution 1's fault-free plan only the main replica sends",
)
def check_solution1_sender(schedule: Schedule) -> Iterator[Finding]:
    if schedule.semantics is not ScheduleSemantics.SOLUTION1:
        return
    yield from _via_validator(schedule, _check_solution1_senders)


@rule(
    "FT210",
    "solution2-replication",
    Severity.ERROR,
    Scope.SCHEDULE,
    "Solution-2 comms follow the Section 7.1 replication rule",
)
def check_solution2_replication(schedule: Schedule) -> Iterator[Finding]:
    if schedule.semantics is not ScheduleSemantics.SOLUTION2:
        return
    yield from _via_validator(schedule, _check_solution2_replication)


@rule(
    "FT211",
    "timeout-soundness",
    Severity.ERROR,
    Scope.SCHEDULE,
    "Solution-1 timeouts cover the worst-case communication times",
)
def check_timeout_soundness(schedule: Schedule) -> Iterator[Finding]:
    if schedule.semantics is not ScheduleSemantics.SOLUTION1:
        return
    short, missing = audit_timeout_table(schedule)
    for entry, bound in short:
        yield (
            f"timeout of watcher {entry.watcher!r} on candidate "
            f"{entry.candidate!r} (op {entry.op!r}, dependency "
            f"{entry.dependency[0]}->{entry.dependency[1]}, rank "
            f"{entry.rank}) is {entry.deadline:g}, below the worst-case "
            f"observation bound {bound:g}: the watchdog can elect a new "
            f"main while the healthy one is still sending",
            entry.op,
        )
    for op, dep, watcher, rank in missing:
        yield (
            f"backup {watcher!r} has no timeout entry for candidate rank "
            f"{rank} of dependency {dep[0]}->{dep[1]} (op {op!r}): its "
            f"watchdog stops waiting for that candidate and takes over "
            f"even while the candidate is healthy",
            op,
        )


@rule(
    "FT212",
    "route-liveness",
    Severity.ERROR,
    Scope.SCHEDULE,
    "every failure pattern of size <= K leaves all outputs producible",
)
def check_route_liveness(schedule: Schedule) -> Iterator[Diagnostic]:
    report = certify_fault_tolerance(schedule)
    for diagnostic in report.diagnostics(rule="FT212"):
        yield diagnostic


@rule(
    "FT213",
    "deadline-overrun",
    Severity.ERROR,
    Scope.SCHEDULE,
    "the makespan honours the problem's real-time constraint",
)
def check_deadline(schedule: Schedule) -> Iterator[Finding]:
    deadline = schedule.problem.deadline
    if deadline is None:
        return
    if not approx_le(schedule.makespan, deadline):
        yield (
            f"makespan {schedule.makespan:g} exceeds the deadline "
            f"{deadline:g}",
            f"deadline={deadline:g}",
        )


@rule(
    "FT214",
    "idle-gap",
    Severity.INFO,
    Scope.SCHEDULE,
    "advisory: large idle gaps inside a processor's busy window",
)
def check_idle_gaps(schedule: Schedule) -> Iterator[Finding]:
    makespan = schedule.makespan
    if makespan <= 0:
        return
    for proc in schedule.problem.architecture.processor_names:
        timeline = schedule.processor_timeline(proc)
        if len(timeline) < 2:
            continue
        gaps = sum(
            max(0.0, second.start - first.end)
            for first, second in zip(timeline, timeline[1:])
        )
        if gaps > IDLE_GAP_FRACTION * makespan:
            yield (
                f"processor {proc!r} idles {gaps:g} time units between "
                f"its first and last activity ({100 * gaps / makespan:.0f}% "
                f"of the makespan) — replica placement may be improvable",
                proc,
            )


@rule(
    "FT215",
    "overhead",
    Severity.INFO,
    Scope.SCHEDULE,
    "advisory: makespan far above the theoretical lower bound",
)
def check_overhead(schedule: Schedule) -> Iterator[Finding]:
    from ..analysis.bounds import makespan_lower_bound

    problem = schedule.problem
    if not problem.algorithm.is_valid():
        return
    try:
        bound = makespan_lower_bound(
            problem,
            replicated=schedule.semantics is not ScheduleSemantics.BASELINE
            and problem.failures > 0,
        )
    except Exception:
        return  # incomplete tables: the problem rules report the cause
    if bound > 0 and schedule.makespan > OVERHEAD_RATIO * bound:
        yield (
            f"makespan {schedule.makespan:g} is "
            f"{schedule.makespan / bound:.2f}x the lower bound {bound:g} — "
            f"try --best-of seed exploration or another heuristic",
            "",
        )
