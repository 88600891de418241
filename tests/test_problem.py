"""Unit tests for the Problem bundle and feasibility analysis."""

import pytest

from repro.graphs.algorithm import chain
from repro.graphs.architecture import bus_architecture
from repro.graphs.constraints import (
    INFINITY,
    CommunicationTable,
    ExecutionTable,
)
from repro.graphs.problem import InfeasibleProblemError, Problem


def small_problem(failures=1, procs=3):
    algorithm = chain(["a", "b"])
    architecture = bus_architecture([f"P{i + 1}" for i in range(procs)])
    execution = ExecutionTable.uniform(["a", "b"], architecture.processor_names)
    communication = CommunicationTable.uniform_per_dependency(
        {("a", "b"): 0.5}, architecture.link_names
    )
    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=execution,
        communication=communication,
        failures=failures,
    )


class TestConstruction:
    def test_negative_failures_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            small_problem(failures=-1)

    def test_bad_deadline_rejected(self):
        problem = small_problem()
        with pytest.raises(InfeasibleProblemError):
            Problem(
                algorithm=problem.algorithm,
                architecture=problem.architecture,
                execution=problem.execution,
                communication=problem.communication,
                deadline=0.0,
            )

    def test_replication_degree(self):
        assert small_problem(failures=0).replication_degree == 1
        assert small_problem(failures=2).replication_degree == 3


class TestFeasibility:
    def test_feasible(self):
        problem = small_problem(failures=1)
        problem.check()
        assert problem.is_feasible()

    def test_too_few_processors_for_k(self):
        problem = small_problem(failures=3, procs=3)
        with pytest.raises(InfeasibleProblemError, match="K=3"):
            problem.check()

    def test_operation_with_too_few_capable_processors(self):
        problem = small_problem(failures=1)
        # Pin 'b' to a single processor: K=1 needs two.
        problem.execution.set_duration("b", "P2", INFINITY)
        problem.execution.set_duration("b", "P3", INFINITY)
        with pytest.raises(InfeasibleProblemError, match="'b'"):
            problem.check()
        assert not problem.is_feasible()

    def test_incomplete_communication_table(self):
        problem = small_problem()
        problem.communication.entries.clear()
        assert not problem.is_feasible()

    def test_paper_examples_feasible(self, bus_problem, p2p_problem):
        bus_problem.check()
        p2p_problem.check()

    def test_paper_example_infeasible_for_k2(self, bus_problem):
        # I and O can only run on P1/P2, so K=2 (3 replicas) is impossible.
        with pytest.raises(InfeasibleProblemError):
            bus_problem.with_failures(2).check()


class TestVariants:
    def test_without_fault_tolerance(self):
        baseline = small_problem(failures=2).without_fault_tolerance()
        assert baseline.failures == 0
        assert baseline.replication_degree == 1

    def test_with_failures_keeps_rest(self):
        problem = small_problem(failures=0)
        variant = problem.with_failures(1)
        assert variant.failures == 1
        assert variant.algorithm is problem.algorithm
        assert variant.architecture is problem.architecture

    def test_allowed_processors(self, bus_problem):
        assert bus_problem.allowed_processors("I") == ["P1", "P2"]
        assert bus_problem.allowed_processors("A") == ["P1", "P2", "P3"]


class TestIntrospection:
    def test_summary(self, bus_problem):
        summary = bus_problem.summary()
        assert summary["operations"] == 7
        assert summary["dependencies"] == 8
        assert summary["processors"] == 3
        assert summary["single_bus"] is True
        assert summary["failures_tolerated"] == 1

    def test_routing_cached(self):
        problem = small_problem()
        assert problem.routing is problem.routing

    def test_repr(self):
        assert "K=1" in repr(small_problem(failures=1))


class TestLargestFrame:
    @staticmethod
    def per_link(problem, link):
        """The definition: the largest duration on ``link`` over the
        algorithm's dependencies, 0.0 when none has one there."""
        comm = problem.communication
        durations = [
            comm.duration(dep.key, link)
            for dep in problem.algorithm.dependencies
            if comm.has_duration(dep.key, link)
        ]
        return max(durations) if durations else 0.0

    def test_matches_the_per_link_definition(self):
        from repro.graphs.generators import random_bus_problem, random_p2p_problem

        for problem in (
            random_bus_problem(12, 4, failures=1, seed=3),
            random_p2p_problem(12, 5, failures=2, seed=4),
        ):
            for link in problem.architecture.link_names:
                assert problem.largest_frame(link) == self.per_link(problem, link)

    def test_counts_algorithm_dependencies_only(self):
        problem = small_problem()
        problem.architecture.add_processor("P9")
        problem.architecture.add_link("spare", "P1", "P9")
        # An entry for a dependency the algorithm does not have.
        problem.communication.set_duration(("x", "y"), "spare", 9.0)
        problem.communication.set_duration(("x", "y"), "bus", 9.0)
        assert problem.largest_frame("spare") == self.per_link(problem, "spare") == 0.0
        assert problem.largest_frame("bus") == self.per_link(problem, "bus") == 0.5
        assert problem.largest_frame("no-such-link") == 0.0
