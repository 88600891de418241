"""Tests for :mod:`repro.lint`, the rule-based static analyser.

Three layers of coverage:

* the registry/engine/emitters machinery (stable IDs, suppression,
  severity overrides, crash containment, JSON/SARIF round-trips);
* a positive property: schedules produced by the shipped heuristics on
  random generator problems carry **zero error-level findings**;
* a negative test per rule: a deliberately corrupted problem or
  schedule triggers exactly the advertised rule ID.
"""

import dataclasses
import json

import pytest

from repro import paper, schedule_solution1, schedule_solution2
from repro.core.schedule import (
    CommSlot,
    ReplicaPlacement,
    Schedule,
    ScheduleSemantics,
)
from repro.graphs import (
    AlgorithmGraph,
    Architecture,
    CommunicationTable,
    ExecutionTable,
    Problem,
    bus_architecture,
)
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint import (
    Diagnostic,
    LintConfig,
    LintReport,
    Severity,
    lint,
    lint_problem,
    lint_schedule,
)
from repro.lint.emitters import (
    render_text,
    report_from_json,
    report_from_sarif,
    report_to_json,
    report_to_sarif,
)
from repro.lint.engine import INTERNAL_RULE
from repro.lint.registry import Scope, all_rules, get_rule, rules_for


def error_rules(report: LintReport):
    return {d.rule for d in report.errors}


# ----------------------------------------------------------------------
# Hand-built fixtures small enough to corrupt surgically.
# ----------------------------------------------------------------------


def chain_problem(failures=0, deadline=None, pin=None):
    """``a -> b`` on two processors joined by one point-to-point link.

    ``pin`` maps an operation to the subset of processors allowed to
    run it (default: everywhere).
    """
    algorithm = AlgorithmGraph("chain")
    algorithm.add_comp("a")
    algorithm.add_comp("b")
    algorithm.add_dependency("a", "b")
    architecture = Architecture("duo")
    architecture.add_processor("P1")
    architecture.add_processor("P2")
    architecture.add_link("L12", "P1", "P2")
    rows = {}
    for op in ("a", "b"):
        procs = (pin or {}).get(op, ("P1", "P2"))
        rows[op] = {proc: 1.0 for proc in procs}
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable.from_rows(rows),
        communication=CommunicationTable.uniform_per_dependency(
            {("a", "b"): 0.5}, ["L12"]
        ),
        failures=failures,
        deadline=deadline,
        name="chain",
    )


def pair_problem():
    """Two independent operations on the duo architecture."""
    algorithm = AlgorithmGraph("pair")
    algorithm.add_comp("a")
    algorithm.add_comp("b")
    architecture = Architecture("duo")
    architecture.add_processor("P1")
    architecture.add_processor("P2")
    architecture.add_link("L12", "P1", "P2")
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable.uniform(("a", "b"), ("P1", "P2")),
        communication=CommunicationTable(),
        name="pair",
    )


def solo_problem(failures=1):
    """One operation, two processors: the smallest replicable problem."""
    algorithm = AlgorithmGraph("solo")
    algorithm.add_comp("a")
    architecture = Architecture("duo")
    architecture.add_processor("P1")
    architecture.add_processor("P2")
    architecture.add_link("L12", "P1", "P2")
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable.uniform(("a",), ("P1", "P2")),
        communication=CommunicationTable(),
        failures=failures,
        name="solo",
    )


def line_problem():
    """Three processors in a line: the middle one is a cut vertex."""
    algorithm = AlgorithmGraph("pair")
    algorithm.add_comp("a")
    algorithm.add_comp("b")
    algorithm.add_dependency("a", "b")
    architecture = Architecture("line")
    for proc in ("P1", "P2", "P3"):
        architecture.add_processor(proc)
    architecture.add_link("L12", "P1", "P2")
    architecture.add_link("L23", "P2", "P3")
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable.uniform(("a", "b"), ("P1", "P2", "P3")),
        communication=CommunicationTable.uniform_per_dependency(
            {("a", "b"): 0.5}, ["L12", "L23"]
        ),
        failures=1,
        name="line",
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_ids_are_stable_and_unique():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids))
    for r in rules:
        assert r.summary, r.id
        if r.id.startswith("FT1"):
            assert r.scope is Scope.PROBLEM
        if r.id.startswith("FT2"):
            assert r.scope is Scope.SCHEDULE
    # The shipped packs (the documented contract of docs/lint.md).
    assert {f"FT10{i}" for i in range(1, 9)} <= set(ids)
    assert {f"FT2{i:02d}" for i in range(1, 16)} <= set(ids)


def test_rules_for_partitions_the_registry():
    problem_ids = {r.id for r in rules_for(Scope.PROBLEM)}
    schedule_ids = {r.id for r in rules_for(Scope.SCHEDULE)}
    assert not problem_ids & schedule_ids
    assert problem_ids | schedule_ids == {r.id for r in all_rules()}


def test_get_rule_resolves_and_rejects():
    assert get_rule("FT101").name == "algorithm-cycle"
    with pytest.raises(KeyError):
        get_rule("FT999")


# ----------------------------------------------------------------------
# Positive: the shipped problems and heuristics lint clean.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("failures", [0, 1])
def test_paper_problems_have_no_error_lints(failures):
    for build in (
        paper.first_example_problem,
        paper.second_example_problem,
    ):
        report = lint_problem(build(failures=failures))
        assert not report.errors, render_text(report)


def test_paper_schedules_have_no_error_lints():
    bus = paper.first_example_problem(failures=1)
    p2p = paper.second_example_problem(failures=1)
    for problem, scheduler in ((bus, schedule_solution1), (p2p, schedule_solution2)):
        result = scheduler(problem)
        report = lint(problem, result.schedule)
        assert not report.errors, render_text(report)


@pytest.mark.parametrize("seed", range(3))
def test_property_random_problems_lint_clean(seed):
    """Heuristic outputs on generator problems carry zero error lints."""
    bus = random_bus_problem(operations=8, processors=3, failures=1, seed=seed)
    p2p = random_p2p_problem(operations=8, processors=3, failures=1, seed=seed)
    for problem, scheduler in ((bus, schedule_solution1), (p2p, schedule_solution2)):
        report = lint(problem, scheduler(problem).schedule)
        assert not report.errors, render_text(report)


# ----------------------------------------------------------------------
# Negative: each rule fires on a deliberately corrupted artifact.
# ----------------------------------------------------------------------


def test_ft101_algorithm_cycle():
    problem = chain_problem()
    problem.algorithm.add_dependency("b", "a")
    problem.communication.set_duration(("b", "a"), "L12", 0.5)
    report = lint_problem(problem)
    assert error_rules(report) == {"FT101"}


def test_ft102_dangling_dependency():
    problem = chain_problem()
    # The adjacency tables keep the arc a->b; its record is gone.
    del problem.algorithm._out["a"]["b"]
    report = lint_problem(problem)
    assert "FT102" in error_rules(report)


def test_ft102_empty_graph():
    problem = chain_problem()
    problem.algorithm = AlgorithmGraph("empty")
    report = lint_problem(problem)
    assert "FT102" in error_rules(report)


def test_ft103_under_replicable():
    problem = chain_problem(failures=1, pin={"b": ("P1",)})
    report = lint_problem(problem)
    assert "FT103" in error_rules(report)
    # FT104 necessarily fires too (killing P1 wipes every replica of
    # ``b``); suppressing it isolates the under-replication finding.
    isolated = lint_problem(problem, LintConfig.make(suppress=["FT104"]))
    assert error_rules(isolated) == {"FT103"}


def test_ft104_not_survivable_disconnection():
    report = lint_problem(line_problem())
    assert error_rules(report) == {"FT104"}
    assert any("disconnects" in d.message for d in report.by_rule("FT104"))


def test_ft104_too_few_processors():
    problem = chain_problem(failures=1)
    problem.failures = 2  # three replicas, two processors
    report = lint_problem(problem)
    assert "FT104" in error_rules(report)


def test_ft105_deadline_below_bound():
    problem = chain_problem(deadline=50.0)
    problem.deadline = 0.001
    report = lint_problem(problem)
    assert error_rules(report) == {"FT105"}


def test_ft106_incomplete_comm_table():
    problem = chain_problem()
    problem.communication = CommunicationTable()
    report = lint_problem(problem)
    assert error_rules(report) == {"FT106"}


def test_ft107_idle_processor():
    problem = chain_problem()
    problem.architecture.add_processor("P3")
    problem.architecture.add_link("L13", "P1", "P3")
    problem.communication.set_duration(("a", "b"), "L13", 0.5)
    report = lint_problem(problem)
    assert not report.errors
    assert {d.rule for d in report.warnings} == {"FT107"}


def test_ft108_bus_single_point():
    report = lint_problem(paper.first_example_problem(failures=1))
    assert {d.rule for d in report.infos} >= {"FT108"}
    assert not report.errors


def test_ft201_coverage():
    problem = paper.second_example_problem(failures=1)
    schedule = schedule_solution2(problem).schedule
    sink = next(
        op
        for op in problem.algorithm.operation_names
        if not problem.algorithm.successors(op)
    )
    schedule._replicas.pop(sink)
    report = lint_schedule(schedule)
    assert "FT201" in error_rules(report)


def test_ft202_replica_anti_affinity():
    problem = chain_problem(failures=1)
    schedule = Schedule(problem, ScheduleSemantics.SOLUTION2)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0, replica=0))
    schedule.add_replica(ReplicaPlacement("a", "P2", 0.0, 1.0, replica=1))
    schedule.add_replica(ReplicaPlacement("b", "P1", 1.0, 2.0, replica=0))
    schedule.add_replica(ReplicaPlacement("b", "P2", 1.0, 2.0, replica=1))
    second = schedule._replicas["a"][1]
    schedule._replicas["a"][1] = dataclasses.replace(second, processor="P1")
    report = lint_schedule(schedule)
    assert "FT202" in error_rules(report)


def test_ft203_processor_overlap():
    problem = pair_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    schedule.add_replica(ReplicaPlacement("b", "P1", 0.5, 1.5))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT203"}


def test_ft204_link_overlap():
    problem = chain_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    for start in (1.0, 1.3):
        schedule.add_comm(
            CommSlot(
                dependency=("a", "b"),
                sender="P1",
                destinations=("P2",),
                link="L12",
                start=start,
                end=start + 0.5,
            )
        )
    schedule.add_replica(ReplicaPlacement("b", "P2", 2.0, 3.0))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT204"}


def test_ft207_placement_constraints():
    problem = chain_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    schedule.add_comm(
        CommSlot(
            dependency=("a", "b"),
            sender="P1",
            destinations=("P2",),
            link="L12",
            start=1.0,
            end=1.5,
        )
    )
    # The table says ``b`` takes 1.0 on P2, not 0.4.
    schedule.add_replica(ReplicaPlacement("b", "P2", 1.5, 1.9))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT207"}


def test_ft208_election_order():
    problem = solo_problem(failures=1)
    schedule = Schedule(problem, ScheduleSemantics.SOLUTION2)
    # The main (#0) completes after the first backup: the election
    # order contradicts the completion dates.
    schedule.add_replica(ReplicaPlacement("a", "P1", 1.0, 2.0, replica=0))
    schedule.add_replica(ReplicaPlacement("a", "P2", 0.0, 1.0, replica=1))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT208"}


def _rebuilt(built, comms):
    """A frozen copy of ``built`` carrying ``comms`` instead of its own.

    A frozen schedule is sealed, its comm indexes included, so a
    tampered copy is built through the public API.
    """
    schedule = Schedule(built.problem, built.semantics)
    for replica in built.all_replicas():
        schedule.add_replica(replica)
    for slot in comms:
        schedule.add_comm(slot)
    for entry in built.timeouts:
        schedule.add_timeout(entry)
    return schedule.freeze()


def test_ft209_solution1_sender():
    problem = paper.first_example_problem(failures=1)
    built = schedule_solution1(problem).schedule
    victim = next(s for s in built.comms if s.hop == 0)
    schedule = _rebuilt(
        built,
        [
            dataclasses.replace(s, sender_replica=1) if s is victim else s
            for s in built.comms
        ],
    )
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT209"}


def test_ft210_solution2_replication():
    problem = paper.second_example_problem(failures=1)
    built = schedule_solution2(problem).schedule
    victim = next(s for s in built.comms if s.hop == 0)
    schedule = _rebuilt(built, [s for s in built.comms if s is not victim])
    report = lint_schedule(schedule)
    assert "FT210" in error_rules(report)


def test_ft212_route_liveness():
    problem = paper.second_example_problem(failures=1)
    schedule = schedule_solution2(problem).schedule
    comp = next(
        op
        for op in problem.algorithm.operation_names
        if len(schedule.replicas(op)) > 1
    )
    schedule._replicas[comp] = schedule._replicas[comp][:1]
    report = lint_schedule(schedule)
    assert "FT212" in error_rules(report)
    # Losing one replica also breaks coverage, by construction.
    assert "FT201" in error_rules(report)


def test_ft205_causality():
    problem = chain_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    # ``b`` starts on P2 although ``a``'s data never travels there.
    schedule.add_replica(ReplicaPlacement("b", "P2", 0.0, 1.0))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert "FT205" in error_rules(report)


def test_ft206_sender_liveness():
    problem = chain_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    # P2 forwards data it never held.
    schedule.add_comm(
        CommSlot(
            dependency=("a", "b"),
            sender="P2",
            destinations=("P1",),
            link="L12",
            start=1.0,
            end=1.5,
        )
    )
    schedule.add_replica(ReplicaPlacement("b", "P1", 2.0, 3.0))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert "FT206" in error_rules(report)


def test_ft211_timeout_undercut():
    problem = paper.first_example_problem(failures=1)
    schedule = schedule_solution1(problem).schedule
    assert schedule._timeouts, "solution1 must emit a timeout table"
    entry = schedule._timeouts[0]
    schedule._timeouts[0] = dataclasses.replace(
        entry, deadline=entry.deadline - 1000.0
    )
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT211"}
    assert any("below the worst-case" in d.message for d in report.errors)


def test_ft211_missing_timeout_entry():
    problem = paper.first_example_problem(failures=1)
    schedule = schedule_solution1(problem).schedule
    dropped = schedule._timeouts.pop()
    report = lint_schedule(schedule)
    assert "FT211" in error_rules(report)
    assert any(dropped.op == d.subject for d in report.by_rule("FT211"))


def test_ft213_deadline_overrun():
    problem = paper.first_example_problem(failures=1)
    schedule = schedule_solution1(problem).schedule
    problem.deadline = schedule.makespan / 2
    report = lint_schedule(schedule)
    assert error_rules(report) == {"FT213"}


def test_ft214_idle_gap_advisory():
    problem = pair_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    schedule.add_replica(ReplicaPlacement("b", "P1", 10.0, 11.0))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert not report.errors
    assert "FT214" in {d.rule for d in report.infos}


def test_ft215_overhead_advisory():
    problem = pair_problem()
    schedule = Schedule(problem, ScheduleSemantics.BASELINE)
    # Everything serialized on P1 while P2 idles: 2x the lower bound.
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0))
    schedule.add_replica(ReplicaPlacement("b", "P1", 1.0, 2.0))
    schedule.freeze()
    report = lint_schedule(schedule)
    assert not report.errors
    assert "FT215" in {d.rule for d in report.infos}


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------


def test_crashed_rule_becomes_internal_warning():
    report = lint_problem(None)  # every rule crashes on None
    assert report.findings
    assert {d.rule for d in report.findings} == {INTERNAL_RULE}
    assert all(d.severity is Severity.WARNING for d in report.findings)


def test_suppression_silences_a_rule():
    problem = paper.first_example_problem(failures=1)
    noisy = lint_problem(problem)
    assert noisy.by_rule("FT108")
    quiet = lint_problem(problem, LintConfig.make(suppress=["FT108"]))
    assert not quiet.by_rule("FT108")


def test_severity_override_changes_the_gate():
    problem = paper.first_example_problem(failures=1)
    assert lint_problem(problem).gate() == 0
    strict = lint_problem(
        problem,
        LintConfig.make(severity_overrides={"FT108": Severity.ERROR}),
    )
    assert strict.gate() == 1
    assert strict.by_rule("FT108")[0].severity is Severity.ERROR


def test_source_label_is_attached():
    problem = paper.first_example_problem(failures=1)
    report = lint_problem(problem, LintConfig.make(source="bundled/first"))
    assert report.findings
    assert all(d.source == "bundled/first" for d in report.findings)


def test_gate_levels():
    report = LintReport()
    report.add("FT999", "advisory", Severity.INFO)
    assert report.gate() == 0
    assert report.gate(fail_on=Severity.WARNING) == 0
    report.add("FT998", "warning", Severity.WARNING)
    assert report.gate() == 0
    assert report.gate(fail_on=Severity.WARNING) == 1
    report.add("FT997", "error", Severity.ERROR)
    assert report.gate() == 1


def test_report_sorting_and_counts():
    report = LintReport()
    report.add("B", "info", Severity.INFO)
    report.add("A", "error", Severity.ERROR)
    report.add("C", "warning", Severity.WARNING)
    ordered = [d.severity for d in report.sorted()]
    assert ordered == [Severity.ERROR, Severity.WARNING, Severity.INFO]
    assert report.counts() == {"error": 1, "warning": 1, "info": 1}


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------


def sample_report():
    report = LintReport()
    report.add(
        "FT101", "cycle a->b->a", Severity.ERROR, subject="a->b", source="x"
    )
    report.add("FT107", "idle P3", Severity.WARNING, subject="P3")
    report.add("FT108", "single bus", Severity.INFO, subject="bus")
    return report


def test_text_rendering_mentions_rules_and_counts():
    text = render_text(sample_report())
    for token in ("FT101", "FT107", "FT108", "1 error(s)"):
        assert token in text


def test_json_round_trip():
    report = sample_report()
    payload = report_to_json(report)
    data = json.loads(payload)
    assert data["tool"] == "repro-lint"
    assert data["summary"] == report.counts()
    recovered = report_from_json(payload)
    assert recovered.findings == report.sorted()


def test_sarif_round_trip():
    report = sample_report()
    payload = report_to_sarif(report)
    data = json.loads(payload)
    assert data["version"] == "2.1.0"
    run = data["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {"FT101"}
    recovered = report_from_sarif(payload)
    assert {(d.rule, d.severity) for d in recovered.findings} == {
        (d.rule, d.severity) for d in report.findings
    }


def test_sarif_of_real_lint_run_parses():
    problem = paper.first_example_problem(failures=1)
    schedule = schedule_solution1(problem).schedule
    report = lint(problem, schedule)
    for emit, parse in (
        (report_to_json, report_from_json),
        (report_to_sarif, report_from_sarif),
    ):
        recovered = parse(emit(report))
        assert len(recovered.findings) == len(report.findings)


# ----------------------------------------------------------------------
# Diagnostic model
# ----------------------------------------------------------------------


def test_diagnostic_dict_round_trip():
    diag = Diagnostic("FT103", "msg", Severity.WARNING, subject="op", source="s")
    assert Diagnostic.from_dict(diag.to_dict()) == diag


def test_validate_reports_convert_to_lint_reports():
    from repro.core.validate import validate_schedule

    problem = paper.first_example_problem(failures=1)
    schedule = schedule_solution1(problem).schedule
    report = validate_schedule(schedule)
    as_lint = report.to_lint_report()
    assert isinstance(as_lint, LintReport)
    assert as_lint.ok


def test_advisor_carries_lint_findings():
    from repro.analysis.advisor import advise

    advice = advise(paper.first_example_problem(failures=1), attempts=2)
    assert any(d.rule == "FT108" for d in advice.lint_findings)
    assert "static analysis" in advice.render()


# ----------------------------------------------------------------------
# FT216: static delivery-gap heuristic
# ----------------------------------------------------------------------


def gap_problem(failures=1):
    """``a -> b`` on a three-processor bus (room for a takeover gap)."""
    algorithm = AlgorithmGraph("gap")
    algorithm.add_comp("a")
    algorithm.add_comp("b")
    algorithm.add_dependency("a", "b")
    architecture = bus_architecture(("P1", "P2", "P3"))
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable.uniform(("a", "b"), ("P1", "P2", "P3")),
        communication=CommunicationTable.uniform_per_dependency(
            {("a", "b"): 0.5}, ["bus"]
        ),
        failures=failures,
        name="gap",
    )


def gap_schedule(with_ladder=False):
    """``a`` replicated on P1/P2, consumer ``b`` on P3, one static send.

    Without a timeout ladder, crashing P1 (the only scheduled sender)
    leaves survivor ``a@P2`` holding data it will never send (what
    FT216 flags).
    """
    from repro.core.schedule import TimeoutEntry

    problem = gap_problem(failures=1)
    schedule = Schedule(problem, ScheduleSemantics.SOLUTION1)
    schedule.add_replica(ReplicaPlacement("a", "P1", 0.0, 1.0, replica=0))
    schedule.add_replica(ReplicaPlacement("a", "P2", 0.0, 1.0, replica=1))
    schedule.add_replica(ReplicaPlacement("b", "P3", 2.0, 3.0, replica=0))
    schedule.add_replica(ReplicaPlacement("b", "P1", 2.0, 3.0, replica=1))
    schedule.add_comm(
        CommSlot(("a", "b"), "P1", ("P3",), "bus", 1.0, 1.5)
    )
    if with_ladder:
        schedule.add_timeout(
            TimeoutEntry(
                op="a",
                dependency=("a", "b"),
                watcher="P2",
                candidate="P1",
                rank=0,
                deadline=1.5,
            )
        )
    return schedule


def test_ft216_delivery_gap_fires_without_survivor_ladder():
    report = lint_schedule(gap_schedule(with_ladder=False))
    findings = [d for d in report.findings if d.rule == "FT216"]
    assert findings, "FT216 should flag the missing takeover ladder"
    assert findings[0].severity is Severity.WARNING
    assert "b@P3" in findings[0].message
    assert findings[0].subject == "a->b"


def test_ft216_silent_with_survivor_ladder():
    report = lint_schedule(gap_schedule(with_ladder=True))
    assert not [d for d in report.findings if d.rule == "FT216"]


def test_ft211_missing_entry_takes_over_from_a_healthy_candidate():
    """A backup without a ladder rung does not wait for that candidate:
    its watchdog sends as soon as its own replica completes, so even
    the failure-free run carries a takeover frame."""
    from repro.sim import simulate

    takeovers = [str(f) for f in simulate(gap_schedule()).takeover_frames()]
    assert [t.split(" on ")[0] for t in takeovers] == ["a->b P2=>P3"]
    assert not simulate(gap_schedule(with_ladder=True)).takeover_frames()
    findings = lint_schedule(gap_schedule()).by_rule("FT211")
    assert findings
    assert "takes over even while the candidate is healthy" in (
        findings[0].message
    )
    assert "never take over" not in findings[0].message


def test_ft216_silent_on_paper_schedules():
    for problem, build in (
        (paper.first_example_problem(failures=1), schedule_solution1),
        (paper.second_example_problem(failures=1), schedule_solution2),
    ):
        schedule = build(problem).schedule
        report = lint_schedule(schedule)
        assert not [d for d in report.findings if d.rule == "FT216"]
