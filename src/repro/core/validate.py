"""Static validation of schedules and K-fault-tolerance certification.

Two layers of assurance, both purely static (no simulation):

* :func:`validate_schedule` checks that a schedule is *well-formed*:
  resource exclusivity (one operation at a time per computation unit,
  one comm at a time per link), constraint conformance (placements on
  capable processors, durations from the tables), replication degree,
  election ordering, and causality (every replica has every input
  available — locally or through comm slots — before it starts; every
  comm slot carries data its sender actually holds).

* :func:`certify_fault_tolerance` decides, by exhaustive enumeration
  of the failure patterns of size <= K, whether every pattern leaves
  each output produced when its processors are dead from the start of
  the iteration.  Each pattern is an exact replay of the schedule's
  delivery automaton (:mod:`repro.lint.proof`), the same model the
  prover sweeps over crash dates: Solution-1 data moves only on
  scheduled frames and timeout-ladder takeovers, Solution-2 data on
  the statically replicated comms, and the baseline has no redundancy.
  :func:`certify_link_fault_tolerance` is the link-failure
  counterpart, a static-route check.

The dynamic counterpart — actually executing the schedule under
injected crashes — lives in :mod:`repro.sim`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..lint.model import Diagnostic, LintReport, Severity
from ..tolerance import approx_eq, approx_le
from .schedule import CommSlot, ReplicaPlacement, Schedule, ScheduleSemantics

__all__ = [
    "Violation",
    "ValidationReport",
    "validate_schedule",
    "availability_events",
    "CertificationReport",
    "certify_fault_tolerance",
    "certify_link_fault_tolerance",
]

#: A validation failure IS a diagnostic of the shared model: one rule
#: identifier, one severity (always ``ERROR`` here — a malformed
#: schedule must not ship), one description.  The alias keeps the
#: historical name alive for callers.
Violation = Diagnostic


@dataclass
class ValidationReport:
    """The outcome of :func:`validate_schedule`."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, message: str) -> None:
        self.violations.append(Violation(rule, message, Severity.ERROR))

    def to_lint_report(self) -> LintReport:
        """The findings as a shared :class:`LintReport`."""
        return LintReport(findings=list(self.violations))

    def raise_if_invalid(self) -> None:
        """Raise ``AssertionError`` listing all violations, if any."""
        if not self.ok:
            details = "\n".join(str(v) for v in self.violations)
            raise AssertionError(f"invalid schedule:\n{details}")

    def __str__(self) -> str:
        if self.ok:
            return "valid schedule"
        return "\n".join(str(v) for v in self.violations)


def validate_schedule(schedule: Schedule) -> ValidationReport:
    """Check well-formedness of ``schedule``; never raises."""
    report = ValidationReport()
    _check_coverage(schedule, report)
    _check_placements(schedule, report)
    _check_election_order(schedule, report)
    _check_exclusive_processors(schedule, report)
    _check_exclusive_links(schedule, report)
    _check_replica_inputs(schedule, report)
    _check_slot_senders(schedule, report)
    if schedule.semantics is ScheduleSemantics.SOLUTION1:
        _check_solution1_senders(schedule, report)
    if schedule.semantics is ScheduleSemantics.SOLUTION2:
        _check_solution2_replication(schedule, report)
    return report


# ----------------------------------------------------------------------
# Well-formedness rules
# ----------------------------------------------------------------------

def _check_coverage(schedule: Schedule, report: ValidationReport) -> None:
    """Every operation scheduled, with the right replication degree."""
    problem = schedule.problem
    expected = (
        1
        if schedule.semantics is ScheduleSemantics.BASELINE
        else problem.replication_degree
    )
    for op in problem.algorithm.operation_names:
        try:
            replicas = schedule.replicas(op)
        except Exception:
            report.add("coverage", f"operation {op!r} is not scheduled")
            continue
        if len(replicas) != expected:
            report.add(
                "coverage",
                f"operation {op!r} has {len(replicas)} replicas, "
                f"expected {expected}",
            )
        procs = [r.processor for r in replicas]
        if len(set(procs)) != len(procs):
            report.add(
                "coverage",
                f"operation {op!r} has several replicas on one processor",
            )


def _check_placements(schedule: Schedule, report: ValidationReport) -> None:
    """Placements respect the distribution constraints."""
    execution = schedule.problem.execution
    for op in schedule.operations:
        for replica in schedule.replicas(op):
            duration = execution.duration(op, replica.processor)
            if not math.isfinite(duration):
                report.add(
                    "constraints",
                    f"{replica}: processor cannot execute this operation",
                )
            elif not approx_eq(replica.duration, duration):
                report.add(
                    "constraints",
                    f"{replica}: duration {replica.duration} differs from "
                    f"the table's {duration}",
                )


def _check_election_order(schedule: Schedule, report: ValidationReport) -> None:
    """Replica indices follow completion dates (main finishes first)."""
    for op in schedule.operations:
        replicas = schedule.replicas(op)
        for earlier, later in zip(replicas, replicas[1:]):
            if not approx_le(earlier.end, later.end):
                report.add(
                    "election",
                    f"operation {op!r}: replica #{earlier.replica} ends "
                    f"after replica #{later.replica} (election order "
                    f"must follow completion dates)",
                )


def _check_exclusive_processors(
    schedule: Schedule, report: ValidationReport
) -> None:
    """A computation unit executes one operation at a time."""
    for proc in schedule.problem.architecture.processor_names:
        timeline = schedule.processor_timeline(proc)
        for first, second in zip(timeline, timeline[1:]):
            if not approx_le(first.end, second.start):
                report.add(
                    "processor-overlap",
                    f"on {proc}: {first} overlaps {second}",
                )


def _check_exclusive_links(schedule: Schedule, report: ValidationReport) -> None:
    """A link carries one comm at a time (the arbiter serializes)."""
    for link in schedule.problem.architecture.link_names:
        timeline = schedule.link_timeline(link)
        for first, second in zip(timeline, timeline[1:]):
            if not approx_le(first.end, second.start):
                report.add(
                    "link-overlap",
                    f"on {link}: [{first}] overlaps [{second}]",
                )


def availability_events(schedule: Schedule) -> Dict[Tuple[str, str], float]:
    """Earliest date each operation's data exists on each processor.

    Combines local replica completions with comm-slot deliveries
    (hop by hop, so relays count as holders of the data).  Exposed
    publicly because the lint rules build on the same availability
    analysis.
    """
    available: Dict[Tuple[str, str], float] = {}

    def offer(op: str, proc: str, date: float) -> None:
        key = (op, proc)
        if key not in available or date < available[key]:
            available[key] = date

    for replica in schedule.all_replicas():
        offer(replica.op, replica.processor, replica.end)
    # Comm slots are processed in start order (they are sorted); a
    # relay can only forward after receiving, which causality checking
    # verifies separately.
    for slot in schedule.comms:
        for dest in slot.destinations:
            offer(slot.src_op, dest, slot.end)
    return available


def _check_replica_inputs(schedule: Schedule, report: ValidationReport) -> None:
    """Every replica's inputs are available before it starts."""
    available = availability_events(schedule)
    algorithm = schedule.problem.algorithm
    for replica in schedule.all_replicas():
        for pred in algorithm.predecessors(replica.op):
            date = available.get((pred, replica.processor))
            if date is None:
                report.add(
                    "causality",
                    f"{replica}: input {pred!r} never reaches "
                    f"{replica.processor}",
                )
            elif not approx_le(date, replica.start):
                report.add(
                    "causality",
                    f"{replica}: input {pred!r} arrives at {date}, after "
                    f"the replica starts at {replica.start}",
                )


def _check_slot_senders(schedule: Schedule, report: ValidationReport) -> None:
    """Every comm slot's sender holds the data before the slot starts."""
    available = availability_events(schedule)
    for slot in schedule.comms:
        date = available.get((slot.src_op, slot.sender))
        if date is None:
            report.add(
                "causality",
                f"comm {slot}: sender never holds the data of "
                f"{slot.src_op!r}",
            )
        elif not approx_le(date, slot.start):
            report.add(
                "causality",
                f"comm {slot}: starts at {slot.start} but the sender "
                f"holds the data only at {date}",
            )


def _check_solution1_senders(schedule: Schedule, report: ValidationReport) -> None:
    """Solution 1 fault-free plan: only main replicas emit data.

    A slot's original emitter must host the main replica of the source
    operation (relays of multi-hop routes are recognized by having
    received the data earlier on the same route).
    """
    for slot in schedule.comms:
        if slot.hop > 0:
            continue  # relay hop of a routed transfer
        main = schedule.main_replica(slot.src_op)
        if slot.sender != main.processor:
            report.add(
                "solution1-sender",
                f"comm {slot}: emitted by {slot.sender}, but the main "
                f"replica of {slot.src_op!r} is on {main.processor}",
            )
        if slot.sender_replica != 0:
            report.add(
                "solution1-sender",
                f"comm {slot}: emitted by replica #{slot.sender_replica}; "
                f"only the main replica sends in Solution 1",
            )


def _check_solution2_replication(
    schedule: Schedule, report: ValidationReport
) -> None:
    """Solution 2: comms replicated per Section 7.1's suppression rule.

    For each dependency ``o' -> o`` and each replica of ``o`` on
    processor ``p``: if no replica of ``o'`` lives on ``p``, every
    replica of ``o'`` must emit the data toward ``p``; if one does,
    no comm toward ``p`` is required (intra-processor transfer).
    """
    algorithm = schedule.problem.algorithm
    for dep in algorithm.dependencies:
        src, dst = dep.key
        try:
            src_replicas = schedule.replicas(src)
            dst_replicas = schedule.replicas(dst)
        except Exception:
            continue  # coverage rule already reported
        src_procs = {r.processor for r in src_replicas}
        slots = schedule.comms_for_dependency(dep.key)
        for replica in dst_replicas:
            if replica.processor in src_procs:
                continue
            senders = {
                s.sender_replica
                for s in slots
                if s.hop == 0
                and replica.processor in _slot_reach(schedule, s)
            }
            expected = {r.replica for r in src_replicas}
            if senders != expected:
                report.add(
                    "solution2-replication",
                    f"dependency {src}->{dst} toward {replica.processor}: "
                    f"sender replicas {sorted(senders)} != expected "
                    f"{sorted(expected)}",
                )


def _slot_reach(schedule: Schedule, first_hop: CommSlot) -> Set[str]:
    """Processors ultimately served by a transfer starting at this slot.

    Single-hop transfers (the common case: bus broadcast or direct
    link) serve their destinations; for multi-hop routes we follow the
    same dependency's later hops.
    """
    reached = set(first_hop.destinations)
    if first_hop.route_length <= 1:
        return reached
    frontier = set(first_hop.destinations)
    for slot in schedule.comms_for_dependency(first_hop.dependency):
        if slot.hop > 0 and slot.sender in frontier and approx_le(first_hop.end, slot.start):
            reached.update(slot.destinations)
            frontier.update(slot.destinations)
    return reached


# ----------------------------------------------------------------------
# K-fault-tolerance certification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PatternOutcome:
    """Producibility analysis of one failure pattern."""

    failed: FrozenSet[str]
    ok: bool
    lost_operations: Tuple[str, ...]


@dataclass
class CertificationReport:
    """The outcome of :func:`certify_fault_tolerance`."""

    degree: int
    outcomes: List[PatternOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failing_patterns(self) -> List[PatternOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def raise_if_invalid(self) -> None:
        if not self.ok:
            bad = ", ".join(
                "{" + ",".join(sorted(o.failed)) + "}"
                for o in self.failing_patterns
            )
            raise AssertionError(
                f"schedule is not {self.degree}-fault-tolerant; "
                f"failing patterns: {bad}"
            )

    def diagnostics(self, rule: str = "fault-tolerance") -> List[Diagnostic]:
        """The failing patterns as shared-model diagnostics."""
        found = []
        for outcome in self.failing_patterns:
            pattern = "{" + ",".join(sorted(outcome.failed)) + "}"
            found.append(
                Diagnostic(
                    rule,
                    f"failure pattern {pattern} loses "
                    f"{', '.join(outcome.lost_operations)}",
                    Severity.ERROR,
                    subject=pattern,
                )
            )
        return found

    def to_lint_report(self) -> LintReport:
        """The failing patterns as a shared :class:`LintReport`."""
        return LintReport(findings=self.diagnostics())


def certify_fault_tolerance(
    schedule: Schedule, failures: Optional[int] = None
) -> CertificationReport:
    """Exhaustively certify tolerance to up to ``failures`` crashes.

    ``failures`` defaults to the problem's ``K``.  Each failure pattern
    of at most ``failures`` processors is replayed once on the
    schedule's delivery automaton (:mod:`repro.lint.proof`), with the
    pattern's processors dead from date 0 and not yet detected — the
    executive's own protocol: data moves only on scheduled frames and
    timeout-ladder takeovers.  A pattern passes when the run produces
    every output; its ``lost_operations`` are the operations no
    processor produces, in topological order.  Crashes in the middle
    of an iteration are the prover's domain
    (:func:`repro.lint.proof.prove_delivery`).
    """
    # Imported here: the prover builds on repro.core.
    from ..lint.proof.automaton import compile_automaton
    from ..lint.proof.verifier import run_outcome

    if failures is None:
        failures = schedule.problem.failures
    auto = compile_automaton(schedule)
    order = schedule.problem.algorithm.topological_order()
    report = CertificationReport(degree=failures)
    for size in range(failures + 1):
        for failed in itertools.combinations(auto.processors, size):
            outcome = run_outcome(auto, dict.fromkeys(failed, 0.0))
            lost = tuple(op for op in order if op not in outcome.produced)
            report.outcomes.append(
                PatternOutcome(frozenset(failed), outcome.ok, lost)
            )
    return report


def certify_link_fault_tolerance(
    schedule: Schedule, link_failures: int = 1
) -> CertificationReport:
    """Certify tolerance to up to ``link_failures`` dead links.

    The paper excludes link failures from its model (Section 5.5) and
    lists tolerating them as ongoing work (Section 8); this analysis
    supports that extension.  The delivery automaton does not model
    links, so this is a static-route check: data flows only along the
    *static* per-dependency routes (the executive never reroutes), so
    a dependency whose every sender's route to a consumer crosses a
    dead link is lost.  Single-bus architectures therefore never
    tolerate their bus failing — the reason the paper points at
    intrinsically redundant media (CAN's wire-level redundancy) for
    that fault class.
    """
    links = schedule.problem.architecture.link_names
    report = CertificationReport(degree=link_failures)
    for size in range(link_failures + 1):
        for failed in itertools.combinations(links, size):
            report.outcomes.append(_analyze_pattern(schedule, frozenset(failed)))
    return report


def _analyze_pattern(
    schedule: Schedule, failed_links: FrozenSet[str]
) -> PatternOutcome:
    """Which operations stay producible with ``failed_links`` dead."""
    problem = schedule.problem
    algorithm = problem.algorithm
    lost: List[str] = []
    producible: Dict[str, Set[str]] = {}
    for op in algorithm.topological_order():
        sites = {
            replica.processor
            for replica in schedule.replicas(op)
            if all(
                any(
                    _route_survives(
                        problem,
                        (pred, op),
                        holder,
                        replica.processor,
                        failed_links,
                    )
                    for holder in producible[pred]
                )
                for pred in algorithm.predecessors(op)
            )
        }
        producible[op] = sites
        if not sites:
            lost.append(op)
    return PatternOutcome(
        failed=failed_links, ok=not lost, lost_operations=tuple(lost)
    )


def _route_survives(
    problem,
    dep: Tuple[str, str],
    src: str,
    dst: str,
    failed_links: FrozenSet[str],
) -> bool:
    """True when ``dep``'s static route ``src -> dst`` avoids every dead link."""
    if src == dst:
        return True
    route = problem.routing.route_for_dependency(
        src, dst, dep, problem.communication
    )
    return not failed_links.intersection(route.links)
