"""The compiled executive plan against the per-module rules it replaced.

The simulated executive, the pipeline, the prover's automaton, the
code generator and the critical path each used to derive the static
executive themselves.  The reference functions below are those
derivations; on a seeded battery (bus, point-to-point and mixed
architectures, every method, K = 1 and 2) the one plan must answer
exactly as they did.
"""

from __future__ import annotations

import pytest

from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.core.executive_plan import DEADLINE_SLACK
from repro.core.schedule import ScheduleSemantics
from repro.graphs.architecture import Architecture
from repro.graphs.generators import (
    layered_dag,
    random_bus_problem,
    random_p2p_problem,
    random_problem,
)
from repro.lint.proof.automaton import compile_automaton
from repro.lint.proof.verifier import _AbstractRun
from repro.sim.executive import ExecutiveRuntime

METHODS = {
    "baseline": schedule_baseline,
    "solution1": schedule_solution1,
    "solution2": schedule_solution2,
}


def _mixed_problem(failures: int, seed: int):
    arch = Architecture("mixed")
    for proc in ("P1", "P2", "P3", "P4", "P5"):
        arch.add_processor(proc)
    arch.add_bus("can", ["P1", "P2", "P3"])
    arch.add_link("l14", "P1", "P4")
    arch.add_link("l34", "P3", "P4")
    arch.add_link("l45", "P4", "P5")
    return random_problem(
        layered_dag([2, 3, 3, 2], density=0.6, seed=seed), arch, failures, seed
    )


PROBLEMS = {
    "bus": lambda k, seed: random_bus_problem(
        operations=10, processors=4, failures=k, seed=seed
    ),
    "p2p": lambda k, seed: random_p2p_problem(
        operations=10, processors=5, failures=k, seed=seed
    ),
    "mixed": _mixed_problem,
}

BATTERY = [
    (kind, method, k, seed)
    for kind in PROBLEMS
    for method in METHODS
    for k in (1, 2)
    for seed in (1, 2)
]


# -- the replaced definitions -------------------------------------------
def old_destinations(schedule, dep):
    src, dst = dep
    return sorted(
        proc
        for proc in schedule.processors_of(dst)
        if schedule.replica_on(src, proc) is None
    )


def old_planned_release(schedule, dep, proc):
    starts = [
        slot.start
        for slot in schedule.comms_for_dependency(dep)
        if slot.hop == 0 and slot.sender == proc
    ]
    return min(starts) if starts else None


def old_planned_senders(schedule, op):
    hosts = schedule.processors_of(op)
    if schedule.semantics is ScheduleSemantics.SOLUTION2:
        return tuple(hosts)
    return tuple(hosts[:1])


def old_watch_order(schedule):
    """The executive's watchdog spawn loop."""
    order = []
    if schedule.semantics is not ScheduleSemantics.SOLUTION1:
        return order
    algorithm = schedule.problem.algorithm
    for op in schedule.operations:
        for backup in schedule.replicas(op)[1:]:
            for dep in algorithm.out_dependencies(op):
                if old_destinations(schedule, dep.key):
                    order.append((op, dep.key, backup.processor))
    return order


def old_spawn_list(schedule):
    """The sender spawn loop the executive, the pipeline and the
    prover's abstract run each had: per op, every replica under
    Solution 2, the main replica otherwise."""
    spawned = []
    for op in schedule.operations:
        if schedule.semantics is ScheduleSemantics.SOLUTION2:
            hosts = [r.processor for r in schedule.replicas(op)]
        else:
            hosts = [schedule.main_replica(op).processor]
        spawned.extend((op, proc) for proc in hosts)
    return spawned


def old_detection(schedule):
    architecture = schedule.problem.architecture
    detection = "snoop" if architecture.has_bus else "oracle"
    recovery = (
        schedule.semantics is ScheduleSemantics.SOLUTION1
        and architecture.is_single_bus
    )
    return detection, recovery


@pytest.fixture(scope="module", params=BATTERY, ids=lambda c: "-".join(map(str, c)))
def schedule(request):
    kind, method, k, seed = request.param
    return METHODS[method](PROBLEMS[kind](k, seed)).schedule


def test_plan_is_memoized_on_the_frozen_schedule(schedule):
    plan = schedule.executive_plan
    assert schedule.executive_plan is plan


def test_destinations_and_senders(schedule):
    plan = schedule.executive_plan
    algorithm = schedule.problem.algorithm
    deps = [
        (op, dep.key)
        for op in schedule.operations
        for dep in algorithm.out_dependencies(op)
    ]
    assert list(plan.destinations) == [dep for _, dep in deps]
    for op, dep in deps:
        assert list(plan.destinations[dep]) == old_destinations(schedule, dep)
        assert plan.planned_senders[dep] == old_planned_senders(schedule, op)


def test_op_rows_follow_the_processor_timelines(schedule):
    plan = schedule.executive_plan
    problem = schedule.problem
    algorithm = problem.algorithm
    assert list(plan.timelines) == problem.architecture.processor_names
    for proc, rows in plan.timelines.items():
        placements = schedule.processor_timeline(proc)
        assert [row.placement for row in rows] == placements
        for row, placement in zip(rows, placements):
            op = placement.op
            assert (row.op, row.processor) == (op, proc)
            assert row.predecessors == tuple(algorithm.predecessors(op))
            assert row.duration == problem.execution.duration(op, proc)
            assert row.out_deps == tuple(
                dep.key for dep in algorithm.out_dependencies(op)
            )
            assert row.is_output == (op in algorithm.outputs)
    assert plan.outputs == tuple(algorithm.outputs)


def test_sender_spawn_list(schedule):
    plan = schedule.executive_plan
    assert [(row.op, row.processor) for row in plan.senders] == old_spawn_list(
        schedule
    )
    for row in plan.senders:
        assert row in plan.timelines[row.processor]


def test_release_dates_for_every_replica_host(schedule):
    plan = schedule.executive_plan
    expected = {}
    for op in schedule.operations:
        for dep in schedule.problem.algorithm.out_dependencies(op):
            for proc in schedule.processors_of(op):
                expected[(dep.key, proc)] = old_planned_release(schedule, dep.key, proc)
    assert plan.planned_release == expected
    assert any(date is not None for date in expected.values())


def test_ladders_and_watch_order(schedule):
    plan = schedule.executive_plan
    assert list(plan.watch_order) == old_watch_order(schedule)
    assert list(plan.ladders) == list(plan.watch_order)
    for op, dep, watcher in plan.watch_order:
        rungs = plan.ladders[(op, dep, watcher)]
        assert [(r.candidate, r.rank, r.deadline) for r in rungs] == [
            (e.candidate, e.rank, e.deadline)
            for e in schedule.timeout_ladder(op, dep, watcher)
        ]
        # The code generator used to list rungs by deadline.
        assert sorted(rungs, key=lambda r: r.deadline) == list(rungs)
    if schedule.semantics is ScheduleSemantics.SOLUTION1 and schedule.problem.failures:
        assert plan.watch_order


def test_detection_defaults(schedule):
    """One detection rule in both worlds: the simulated executive and
    the prover's run hold the plan's own facts, which follow the
    architecture as the replaced default did."""
    plan = schedule.executive_plan
    architecture = schedule.problem.architecture
    runtime = ExecutiveRuntime(schedule)
    proof_run = _AbstractRun(compile_automaton(schedule), {})
    for world in (runtime, proof_run):
        assert world.observable is plan.observable
        assert world.snoop_recovery is plan.snoop_recovery
    detection, recovery = old_detection(schedule)
    assert (plan.detection, plan.snoop_recovery) == (detection, recovery)
    assert plan.observable == {
        link: detection == "oracle" or architecture.link(link).is_bus
        for link in architecture.link_names
    }
    if architecture.name == "mixed":
        assert [link for link, seen in plan.observable.items() if seen] == ["can"]
    assert DEADLINE_SLACK == 1e-9


def test_automaton_holds_the_plans_own_objects(schedule):
    plan = schedule.executive_plan
    auto = compile_automaton(schedule)
    assert auto.plan is plan
