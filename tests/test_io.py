"""Unit tests for JSON serialization and DOT export."""

import json
import math

import pytest

from repro.graphs.constraints import (
    CommunicationTable,
    ConstraintError,
    ExecutionTable,
)
from repro.graphs.io import (
    algorithm_to_dot,
    architecture_to_dot,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    schedule_to_dict,
)
from repro.paper.examples import (
    figure8_architecture,
    first_example_problem,
    paper_algorithm,
)


class TestProblemRoundTrip:
    def test_round_trip_preserves_everything(self, bus_problem):
        rebuilt = problem_from_dict(problem_to_dict(bus_problem))
        assert rebuilt.name == bus_problem.name
        assert rebuilt.failures == bus_problem.failures
        assert rebuilt.algorithm.operation_names == (
            bus_problem.algorithm.operation_names
        )
        assert [d.key for d in rebuilt.algorithm.dependencies] == [
            d.key for d in bus_problem.algorithm.dependencies
        ]
        assert rebuilt.architecture.processor_names == (
            bus_problem.architecture.processor_names
        )
        assert rebuilt.execution.entries == bus_problem.execution.entries
        assert rebuilt.communication.entries == bus_problem.communication.entries

    def test_infinity_encoded_as_string(self, bus_problem):
        data = problem_to_dict(bus_problem)
        encoded = {
            (e["op"], e["processor"]): e["duration"] for e in data["execution"]
        }
        assert encoded[("I", "P3")] == "inf"
        # And the whole dict must be JSON-serializable.
        json.dumps(data)

    def test_round_trip_keeps_feasibility(self, bus_problem):
        rebuilt = problem_from_dict(problem_to_dict(bus_problem))
        rebuilt.check()

    def test_round_trip_p2p(self, p2p_problem):
        rebuilt = problem_from_dict(problem_to_dict(p2p_problem))
        assert len(rebuilt.architecture.links) == 3
        assert not rebuilt.architecture.has_bus

    def test_mem_operation_round_trip(self):
        problem = first_example_problem(1)
        problem.algorithm.add_mem("M", initial_value=3.5)
        problem.execution.set_duration("M", "P1", 1.0)
        problem.algorithm.add_dependency("A", "M")
        problem.communication.set_duration(("A", "M"), "bus", 0.1)
        rebuilt = problem_from_dict(problem_to_dict(problem))
        mem = rebuilt.algorithm.operation("M")
        assert mem.is_memory_safe
        assert mem.initial_value == 3.5

    def test_file_round_trip(self, bus_problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(bus_problem, path)
        rebuilt = load_problem(path)
        assert rebuilt.execution.entries == bus_problem.execution.entries

    def test_same_schedule_after_round_trip(self, bus_problem):
        from repro.core import schedule_solution1

        rebuilt = problem_from_dict(problem_to_dict(bus_problem))
        original = schedule_solution1(bus_problem)
        again = schedule_solution1(rebuilt)
        assert original.makespan == pytest.approx(again.makespan)


class TestLoaderChecks:
    """The loader fills the tables in one loop each; it must reject what
    ``set_duration`` rejects, with the same message."""

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_bad_communication_duration(self, bus_problem, value):
        data = problem_to_dict(bus_problem)
        entry = data["communication"][2]
        entry["duration"] = value
        with pytest.raises(ConstraintError) as loaded:
            problem_from_dict(data)
        with pytest.raises(ConstraintError) as direct:
            CommunicationTable().set_duration(
                (entry["src"], entry["dst"]), entry["link"], value
            )
        assert str(loaded.value) == str(direct.value)
        assert "communication duration of" in str(loaded.value)

    @pytest.mark.parametrize("value", [0, -1.0, float("nan")])
    def test_bad_execution_duration(self, bus_problem, value):
        data = problem_to_dict(bus_problem)
        entry = data["execution"][1]
        entry["duration"] = value
        with pytest.raises(ConstraintError) as loaded:
            problem_from_dict(data)
        with pytest.raises(ConstraintError) as direct:
            ExecutionTable().set_duration(
                entry["op"], entry["processor"], float(value)
            )
        assert str(loaded.value) == str(direct.value)
        assert "must be positive or INFINITY" in str(loaded.value)

    def test_repeated_entry_keeps_the_last_value(self, bus_problem):
        data = problem_to_dict(bus_problem)
        data["communication"].append({**data["communication"][0], "duration": 7.0})
        data["execution"].append({**data["execution"][0], "duration": "inf"})
        rebuilt = problem_from_dict(data)
        first = data["communication"][0]
        assert rebuilt.communication.duration(
            (first["src"], first["dst"]), first["link"]
        ) == 7.0
        # ... in the position of its first occurrence.
        assert list(rebuilt.communication.entries) == list(
            problem_from_dict(problem_to_dict(bus_problem)).communication.entries
        )
        entry = data["execution"][0]
        assert rebuilt.execution.duration(entry["op"], entry["processor"]) == math.inf


class TestScheduleExport:
    def test_schedule_to_dict_is_json_ready(self, bus_solution1):
        data = schedule_to_dict(bus_solution1.schedule)
        json.dumps(data)
        assert data["semantics"] == "solution1"
        assert data["makespan"] == pytest.approx(9.4)
        assert len(data["replicas"]) == 14
        assert data["timeouts"], "solution1 exports its timeout ladders"


class TestDotExport:
    def test_algorithm_dot(self):
        dot = algorithm_to_dot(paper_algorithm())
        assert dot.startswith("digraph")
        assert '"I" -> "A"' in dot
        assert "diamond" in dot  # extio shape

    def test_architecture_dot_p2p(self):
        dot = architecture_to_dot(figure8_architecture())
        assert dot.startswith("graph")
        assert '"P1" -- "P2"' in dot

    def test_architecture_dot_bus(self, bus_problem):
        dot = architecture_to_dot(bus_problem.architecture)
        assert '"P1" -- "bus"' in dot
