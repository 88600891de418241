"""Unit tests for the Schedule data model."""

import random

import pytest

from repro.core.schedule import (
    CommSlot,
    ReplicaPlacement,
    Schedule,
    ScheduleError,
    ScheduleSemantics,
    TimeoutEntry,
)
from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import (
    layered_dag,
    random_bus_problem,
    random_p2p_problem,
    random_problem,
)
from repro.paper.examples import figure8_architecture, first_example_problem


@pytest.fixture
def empty_schedule():
    return Schedule(first_example_problem(1), ScheduleSemantics.SOLUTION1)


class TestReplicaPlacement:
    def test_negative_duration_rejected(self):
        with pytest.raises(ScheduleError):
            ReplicaPlacement("a", "P1", 2.0, 1.0)

    def test_main_flag(self):
        assert ReplicaPlacement("a", "P1", 0, 1, replica=0).is_main
        assert not ReplicaPlacement("a", "P1", 0, 1, replica=1).is_main

    def test_negative_replica_rejected(self):
        with pytest.raises(ScheduleError):
            ReplicaPlacement("a", "P1", 0, 1, replica=-1)

    def test_str_mentions_role(self):
        assert "main" in str(ReplicaPlacement("a", "P1", 0, 1))
        assert "backup2" in str(ReplicaPlacement("a", "P1", 0, 1, replica=2))


class TestCommSlot:
    def test_requires_destination(self):
        with pytest.raises(ScheduleError):
            CommSlot(("a", "b"), "P1", (), "bus", 0, 1)

    def test_rejects_self_destination(self):
        with pytest.raises(ScheduleError):
            CommSlot(("a", "b"), "P1", ("P1",), "bus", 0, 1)

    def test_accessors(self):
        slot = CommSlot(("a", "b"), "P1", ("P2", "P3"), "bus", 1.0, 1.5)
        assert slot.src_op == "a"
        assert slot.dst_op == "b"
        assert slot.duration == pytest.approx(0.5)


class TestScheduleConstruction:
    def test_duplicate_replica_index_rejected(self, empty_schedule):
        empty_schedule.add_replica(ReplicaPlacement("A", "P1", 0, 2, replica=0))
        with pytest.raises(ScheduleError):
            empty_schedule.add_replica(ReplicaPlacement("A", "P2", 0, 2, replica=0))

    def test_duplicate_processor_rejected(self, empty_schedule):
        empty_schedule.add_replica(ReplicaPlacement("A", "P1", 0, 2, replica=0))
        with pytest.raises(ScheduleError):
            empty_schedule.add_replica(ReplicaPlacement("A", "P1", 2, 4, replica=1))

    def test_frozen_schedule_immutable(self, empty_schedule):
        empty_schedule.add_replica(ReplicaPlacement("A", "P1", 0, 2))
        empty_schedule.freeze()
        with pytest.raises(ScheduleError):
            empty_schedule.add_replica(ReplicaPlacement("B", "P1", 2, 3))

    def test_freeze_checks_replica_indices(self, empty_schedule):
        empty_schedule.add_replica(ReplicaPlacement("A", "P1", 0, 2, replica=1))
        with pytest.raises(ScheduleError, match="indices"):
            empty_schedule.freeze()

    def test_freeze_checks_link_attachment(self, empty_schedule):
        empty_schedule.add_comm(
            CommSlot(("A", "B"), "P1", ("P2",), "bus", 0, 0.5)
        )
        empty_schedule.freeze()  # P1, P2 are on the bus: fine

    def test_freeze_rejects_detached_sender(self):
        from repro.paper.examples import second_example_problem

        schedule = Schedule(second_example_problem(1), ScheduleSemantics.SOLUTION2)
        # L1.2 joins P1-P2; P3 is not attached.
        schedule.add_comm(CommSlot(("A", "B"), "P3", ("P1",), "L1.2", 0, 0.5))
        with pytest.raises(ScheduleError, match="not attached"):
            schedule.freeze()


class TestScheduleQueries:
    @pytest.fixture
    def populated(self, empty_schedule):
        sched = empty_schedule
        sched.add_replica(ReplicaPlacement("A", "P1", 0.0, 2.0, replica=0))
        sched.add_replica(ReplicaPlacement("A", "P2", 0.0, 3.0, replica=1))
        sched.add_replica(ReplicaPlacement("B", "P2", 3.0, 4.0, replica=0))
        sched.add_comm(CommSlot(("A", "B"), "P1", ("P2",), "bus", 2.0, 2.5))
        sched.add_timeout(
            TimeoutEntry("A", ("A", "B"), "P2", "P1", 0, 2.5)
        )
        return sched.freeze()

    def test_main_and_backups(self, populated):
        assert populated.main_replica("A").processor == "P1"
        assert [r.processor for r in populated.backup_replicas("A")] == ["P2"]

    def test_replica_on(self, populated):
        assert populated.replica_on("A", "P2").replica == 1
        assert populated.replica_on("A", "P3") is None

    def test_processors_of(self, populated):
        assert populated.processors_of("A") == ["P1", "P2"]

    def test_unscheduled_operation_raises(self, populated):
        with pytest.raises(ScheduleError):
            populated.replicas("ghost")

    def test_processor_timeline_sorted(self, populated):
        timeline = populated.processor_timeline("P2")
        assert [r.op for r in timeline] == ["A", "B"]

    def test_link_timeline(self, populated):
        assert len(populated.link_timeline("bus")) == 1
        assert populated.link_timeline("nonexistent") == []

    def test_comms_for_dependency(self, populated):
        assert len(populated.comms_for_dependency(("A", "B"))) == 1
        assert populated.comms_for_dependency(("B", "A")) == []

    def test_makespan_includes_comms(self, populated):
        assert populated.makespan == 4.0

    def test_loads(self, populated):
        assert populated.processor_load("P2") == pytest.approx(4.0)
        assert populated.link_load("bus") == pytest.approx(0.5)

    def test_timeout_ladder(self, populated):
        ladder = populated.timeout_ladder("A", ("A", "B"), "P2")
        assert len(ladder) == 1
        assert ladder[0].candidate == "P1"
        assert populated.timeout_ladder("A", ("A", "B"), "P3") == []

    def test_summary_keys(self, populated):
        summary = populated.summary()
        assert summary["semantics"] == "solution1"
        assert summary["makespan"] == 4.0
        assert summary["replicas"] == 3

    def test_meets_deadline_without_deadline(self, populated):
        assert populated.meets_deadline()


class TestDeadline:
    def test_deadline_violation(self):
        problem = first_example_problem(1)
        problem.deadline = 1.0
        schedule = Schedule(problem, ScheduleSemantics.BASELINE)
        schedule.add_replica(ReplicaPlacement("A", "P1", 0.0, 2.0))
        assert not schedule.meets_deadline()

    def test_deadline_met(self):
        problem = first_example_problem(1)
        problem.deadline = 5.0
        schedule = Schedule(problem, ScheduleSemantics.BASELINE)
        schedule.add_replica(ReplicaPlacement("A", "P1", 0.0, 2.0))
        assert schedule.meets_deadline()


class TestFrozenIndexes:
    """A frozen schedule answers its comm queries from indexes built at
    freeze(); they must equal the linear-scan definitions, in order."""

    @pytest.fixture(
        scope="class",
        params=["bus-s1", "p2p-s2", "chain-s2"],
    )
    def frozen(self, request):
        if request.param == "bus-s1":
            problem = random_bus_problem(operations=14, processors=4, failures=2, seed=1)
            return schedule_solution1(problem).schedule
        if request.param == "p2p-s2":
            problem = random_p2p_problem(operations=14, processors=5, failures=1, seed=3)
            return schedule_solution2(problem).schedule
        # Two-hop routes: the figure 8 chain relays P1 <-> P3 over P2.
        problem = random_problem(
            layered_dag([2, 3, 3, 2], seed=2), figure8_architecture(), failures=1, seed=2
        )
        return schedule_solution2(problem).schedule

    def test_comms_for_dependency_matches_the_scan(self, frozen):
        comms = frozen.comms
        deps = [dep.key for dep in frozen.problem.algorithm.dependencies]
        for dep in deps + [("ghost", "op")]:
            scanned = [c for c in comms if c.dependency == tuple(dep)]
            assert frozen.comms_for_dependency(dep) == scanned
            assert frozen.comms_for_dependency(list(dep)) == scanned

    def test_link_timeline_matches_the_scan(self, frozen):
        comms = frozen.comms
        for link in frozen.problem.architecture.link_names + ["ghost"]:
            scanned = sorted(
                (c for c in comms if c.link == link),
                key=lambda c: (c.start, c.dependency),
            )
            assert frozen.link_timeline(link) == scanned

    def test_returned_lists_are_fresh(self, frozen):
        slot = frozen.comms[0]
        by_dep = frozen.comms_for_dependency(slot.dependency)
        by_link = frozen.link_timeline(slot.link)
        expected = (list(by_dep), list(by_link))
        by_dep.clear()
        by_link.append(slot)
        assert frozen.comms_for_dependency(slot.dependency) == expected[0]
        assert frozen.link_timeline(slot.link) == expected[1]

    def test_schedule_under_construction_matches_the_scan(self, frozen):
        """Rebuilt slot by slot in a shuffled order, the schedule answers
        in insertion order before freeze() and in frozen order after."""
        rebuilt = Schedule(frozen.problem, frozen.semantics)
        for replica in frozen.all_replicas():
            rebuilt.add_replica(replica)
        inserted = list(frozen.comms)
        random.Random(7).shuffle(inserted)
        deps = [dep.key for dep in frozen.problem.algorithm.dependencies]
        links = frozen.problem.architecture.link_names
        for count, slot in enumerate(inserted, 1):
            rebuilt.add_comm(slot)
            if count % 5 and count != len(inserted):
                continue
            for dep in deps:
                assert rebuilt.comms_for_dependency(dep) == [
                    c for c in inserted[:count] if c.dependency == dep
                ]
            for link in links:
                assert rebuilt.link_timeline(link) == sorted(
                    (c for c in inserted[:count] if c.link == link),
                    key=lambda c: (c.start, c.dependency),
                )
        rebuilt.freeze()
        assert rebuilt.comms == frozen.comms
        for dep in deps:
            assert rebuilt.comms_for_dependency(dep) == frozen.comms_for_dependency(dep)
        for link in links:
            assert rebuilt.link_timeline(link) == frozen.link_timeline(link)

    def test_mutable_schedule_scans(self, empty_schedule):
        slot = CommSlot(("A", "B"), "P1", ("P2",), "bus", 2.0, 2.5)
        empty_schedule.add_comm(slot)
        assert empty_schedule.comms_for_dependency(("A", "B")) == [slot]
        assert empty_schedule.link_timeline("bus") == [slot]
        later = CommSlot(("A", "B"), "P2", ("P1",), "bus", 1.0, 1.5)
        empty_schedule.add_comm(later)
        assert empty_schedule.comms_for_dependency(("A", "B")) == [slot, later]
        assert empty_schedule.link_timeline("bus") == [later, slot]

    def test_freezing_twice_changes_no_answer(self, empty_schedule):
        first = CommSlot(("A", "B"), "P2", ("P1",), "bus", 1.0, 1.5)
        second = CommSlot(("A", "B"), "P1", ("P2",), "bus", 2.0, 2.5)
        empty_schedule.add_comm(second)
        empty_schedule.add_comm(first)
        empty_schedule.freeze()
        empty_schedule.freeze()
        assert empty_schedule.comms_for_dependency(("A", "B")) == [first, second]
        assert empty_schedule.link_timeline("bus") == [first, second]
