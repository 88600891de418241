"""End-to-end tests on mixed architectures (bus + point-to-point).

The paper's architecture model (Section 4.3) allows arbitrary mixes of
multi-point and point-to-point links; its examples only use the pure
shapes.  These tests cover the mixed case: a CAN-like backbone bus
plus dedicated express links, and a two-bus segmented network bridged
by a shared processor.
"""

import pytest

from repro.core import (
    schedule_baseline,
    schedule_solution1,
    schedule_solution2,
)
from repro.core.validate import certify_fault_tolerance, validate_schedule
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.architecture import Architecture
from repro.graphs.constraints import CommunicationTable, ExecutionTable
from repro.graphs.generators import diamond_dag
from repro.graphs.problem import Problem
from repro.sim import FailureScenario, simulate
from repro.sim.values import reference_outputs


def bus_plus_express() -> Architecture:
    """Four processors on a bus, plus a fast direct link P1-P2."""
    arch = Architecture("bus+express")
    for proc in ("P1", "P2", "P3", "P4"):
        arch.add_processor(proc)
    arch.add_bus("can", ["P1", "P2", "P3", "P4"])
    arch.add_link("express", "P1", "P2")
    return arch


def two_buses_bridged() -> Architecture:
    """Two bus segments sharing the bridge processor PB."""
    arch = Architecture("two-buses")
    for proc in ("PA1", "PA2", "PB", "PC1", "PC2"):
        arch.add_processor(proc)
    arch.add_bus("busA", ["PA1", "PA2", "PB"])
    arch.add_bus("busC", ["PB", "PC1", "PC2"])
    return arch


def mixed_problem(architecture: Architecture, failures: int = 1) -> Problem:
    algorithm = diamond_dag(width=3)
    procs = architecture.processor_names
    execution = ExecutionTable.uniform(
        algorithm.operation_names, procs, duration=1.0
    )
    comm = CommunicationTable()
    for dep in algorithm.dependencies:
        for link in architecture.link_names:
            # The express link is 4x faster than the buses.
            duration = 0.1 if link == "express" else 0.4
            comm.set_duration(dep.key, link, duration)
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=execution,
        communication=comm,
        failures=failures,
        name=f"mixed-{architecture.name}",
    )


class TestBusPlusExpress:
    @pytest.fixture(scope="class")
    def problem(self):
        return mixed_problem(bus_plus_express())

    def test_architecture_properties(self, problem):
        arch = problem.architecture
        assert arch.has_bus and not arch.is_single_bus
        assert [l.name for l in arch.links_between("P1", "P2")] == [
            "can", "express",
        ]

    def test_routing_prefers_the_fast_link(self, problem):
        dep = problem.algorithm.dependencies[0].key
        route = problem.routing.route_for_dependency(
            "P1", "P2", dep, problem.communication
        )
        assert route.links == ("express",)

    @pytest.mark.parametrize(
        "scheduler", [schedule_baseline, schedule_solution1, schedule_solution2]
    )
    def test_all_schedulers_produce_valid_schedules(self, problem, scheduler):
        result = scheduler(problem)
        validate_schedule(result.schedule).raise_if_invalid()

    def test_solution1_certified_and_survives(self, problem):
        schedule = schedule_solution1(problem).schedule
        certify_fault_tolerance(schedule).raise_if_invalid()
        oracle = reference_outputs(problem.algorithm)
        for victim in problem.architecture.processor_names:
            trace = simulate(schedule, FailureScenario.dead_from_start(victim))
            assert trace.completed
            assert trace.output_values == oracle

    def test_cost_aware_grouping_uses_the_express_link(self, problem):
        """The planner must not herd P1->P2 traffic onto the slow bus
        when the 4x faster express link exists; other destinations
        stay on the bus broadcast."""
        dep = problem.algorithm.dependencies[0].key
        groups, unicast = problem.routing.frame_plan(
            dep, "P1", ["P2", "P3", "P4"], problem.communication
        )
        assert unicast == ("P2",)  # express wins for P2
        assert groups == (("can", ("P3", "P4")),)
        route = problem.routing.route_for_dependency(
            "P1", "P2", dep, problem.communication
        )
        assert route.links == ("express",)

    def test_any_scheduled_p1_p2_frame_uses_express(self, problem):
        for scheduler in (schedule_solution1, schedule_solution2):
            schedule = scheduler(problem).schedule
            for slot in schedule.comms:
                if slot.sender in ("P1", "P2") and set(slot.destinations) <= {
                    "P1", "P2",
                }:
                    assert slot.link == "express"


class TestTwoBusesBridged:
    @pytest.fixture(scope="class")
    def problem(self):
        return mixed_problem(two_buses_bridged())

    def test_routing_crosses_the_bridge(self, problem):
        route = problem.routing.route("PA1", "PC2")
        assert route.traverses("PB")
        assert route.links == ("busA", "busC")

    def test_bridge_is_an_articulation_point(self, problem):
        assert problem.architecture.cut_processors() == ["PB"]

    def test_certifier_detects_the_bridge_vulnerability(self, problem):
        """PB is an articulation point: its death partitions the
        network, and the replication-unaware heuristic does not keep
        every data flow segment-local.  The exhaustive certifier must
        catch exactly that pattern — this is the diagnostic a user
        relies on before trusting a schedule on such a topology."""
        result = schedule_solution1(problem)
        validate_schedule(result.schedule).raise_if_invalid()
        report = certify_fault_tolerance(result.schedule)
        assert not report.ok
        failing = {frozenset(o.failed) for o in report.failing_patterns}
        assert frozenset({"PB"}) in failing
        # Every failing pattern involves the bridge.
        for pattern in failing:
            assert "PB" in pattern

    def test_simulation_agrees_with_the_certifier(self, problem):
        schedule = schedule_solution1(problem).schedule
        report = certify_fault_tolerance(schedule)
        verdict = {
            frozenset(o.failed): o.ok for o in report.outcomes if o.failed
        }
        for victim in problem.architecture.processor_names:
            trace = simulate(schedule, FailureScenario.dead_from_start(victim))
            assert trace.completed == verdict[frozenset({victim})], victim
