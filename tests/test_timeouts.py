"""Unit tests for the Solution-1 timeout-ladder computation."""

import pytest

from repro.core.solution1 import schedule_solution1
from repro.core.timeouts import compute_timeout_table, watch_bound
from repro.graphs.generators import random_bus_problem
from repro.paper.examples import figure8_problem


class TestWatchBound:
    def test_zero_for_self(self, bus_problem):
        assert watch_bound(bus_problem, ("A", "B"), "P1", "P1") == 0.0

    def test_includes_drain_margin(self, bus_problem):
        """The bound covers the transfer itself plus the largest frame
        that may be occupying the bus (take-over traffic cannot be
        planned, only bounded)."""
        bound = watch_bound(bus_problem, ("A", "B"), "P1", "P2")
        # A->B costs 0.5; the largest paper frame is I->A at 1.25.
        assert bound == pytest.approx(0.5 + 1.25)

    def test_monotone_in_dependency_size(self, bus_problem):
        small = watch_bound(bus_problem, ("A", "B"), "P1", "P2")
        large = watch_bound(bus_problem, ("I", "A"), "P1", "P2")
        assert large >= small

    def test_multi_hop_route(self):
        """Over the figure-8 chain P1 -> P2 -> P3: the route transfer
        time (2.5) plus the largest frame of each traversed link."""
        problem = figure8_problem()
        bound = watch_bound(problem, ("I", "A"), "P1", "P3")
        route = problem.routing.route("P1", "P3")
        assert route.hop_count == 2
        drain = sum(problem.largest_frame(link) for link in route.links)
        assert bound == pytest.approx(2.5 + drain)


class TestLadders:
    def test_k1_ladders_have_single_rank(self, bus_solution1):
        for entry in bus_solution1.schedule.timeouts:
            assert entry.rank == 0

    def test_k2_ladders_cascade(self):
        problem = random_bus_problem(operations=8, processors=4, failures=2, seed=3)
        schedule = schedule_solution1(problem).schedule
        ranks = {entry.rank for entry in schedule.timeouts}
        assert ranks == {0, 1}
        # Last backup watches both earlier candidates.
        by_key = {}
        for entry in schedule.timeouts:
            by_key.setdefault((entry.op, entry.dependency, entry.watcher), set()).add(
                entry.rank
            )
        assert any(ranks == {0, 1} for ranks in by_key.values())

    def test_cascade_accumulates(self):
        """deadline(i, 1) > deadline(i, 0): the 'sum of timeouts
        amassed' the paper warns about (Section 6.6)."""
        problem = random_bus_problem(operations=8, processors=4, failures=2, seed=3)
        schedule = schedule_solution1(problem).schedule
        by_key = {}
        for entry in schedule.timeouts:
            by_key.setdefault(
                (entry.op, entry.dependency, entry.watcher), {}
            )[entry.rank] = entry.deadline
        cascaded = [d for d in by_key.values() if len(d) == 2]
        assert cascaded
        for deadlines in cascaded:
            assert deadlines[1] > deadlines[0]

    def test_no_entries_for_unreplicated_ops(self, bus_baseline):
        entries = compute_timeout_table(
            bus_baseline.schedule.problem,
            {
                op: bus_baseline.schedule.replicas(op)
                for op in bus_baseline.schedule.operations
            },
            bus_baseline.schedule,
        )
        assert entries == []

    def test_no_entries_for_commless_dependencies(self, bus_solution1):
        schedule = bus_solution1.schedule
        deps_with_comms = {s.dependency for s in schedule.comms}
        for entry in schedule.timeouts:
            assert entry.dependency in deps_with_comms

    def test_watcher_deadline_covers_static_send(self, bus_solution1):
        """No watchdog may fire before the main's planned frame is on
        the wire — otherwise healthy runs would elect spuriously."""
        schedule = bus_solution1.schedule
        for entry in schedule.timeouts:
            if entry.rank == 0:
                frame_end = max(
                    s.end for s in schedule.comms_for_dependency(entry.dependency)
                )
                assert entry.deadline >= frame_end - 1e-9
