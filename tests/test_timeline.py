"""Unit tests for timeline state and communication planning."""

import pytest

from repro.core.timeline import CommPlanner, TimelineState
from repro.paper.examples import (
    figure8_problem,
    first_example_problem,
    second_example_problem,
)


class TestTimelineState:
    def test_fresh_state(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        assert state.proc_free == {"P1": 0.0, "P2": 0.0, "P3": 0.0}
        assert state.link_free == {"bus": 0.0}

    def test_clone_is_independent(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        clone = state.clone()
        clone.proc_free["P1"] = 5.0
        clone.record_arrival(("A", "B"), "P2", 1.0)
        assert state.proc_free["P1"] == 0.0
        assert state.arrival(("A", "B"), "P2") is None

    def test_record_replica_advances_processor(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        state.record_replica("A", "P1", 3.0)
        assert state.proc_free["P1"] == 3.0
        assert state.local_copy_end("A", "P1") == 3.0
        assert state.local_copy_end("A", "P2") is None

    def test_record_arrival_keeps_earliest(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        state.record_arrival(("A", "B"), "P2", 4.0)
        state.record_arrival(("A", "B"), "P2", 2.0)
        state.record_arrival(("A", "B"), "P2", 3.0)
        assert state.arrival(("A", "B"), "P2") == 2.0

    def test_data_available_prefers_earliest_source(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        assert state.data_available(("A", "B"), "P2") is None
        state.record_replica("A", "P2", 5.0)
        assert state.data_available(("A", "B"), "P2") == 5.0
        state.record_arrival(("A", "B"), "P2", 3.0)
        assert state.data_available(("A", "B"), "P2") == 3.0


class TestUnicastTransfer:
    def test_same_processor_is_free(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrival = planner.transfer(state, ("A", "B"), "P1", "P1", ready=2.0)
        assert arrival == 2.0
        assert state.link_free["bus"] == 0.0

    def test_single_hop(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        arrival = planner.transfer(
            state, ("A", "B"), "P1", "P2", ready=3.0, collect=slots
        )
        assert arrival == pytest.approx(3.5)  # A->B costs 0.5
        assert state.link_free["bus"] == pytest.approx(3.5)
        (slot,) = slots
        assert slot.sender == "P1" and slot.destinations == ("P2",)

    def test_link_contention_serializes(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        planner.transfer(state, ("A", "B"), "P1", "P2", ready=0.0)
        arrival = planner.transfer(state, ("A", "C"), "P1", "P3", ready=0.0)
        # Second transfer waits for the bus: 0.5 + 0.5.
        assert arrival == pytest.approx(1.0)

    def test_multi_hop_route(self):
        problem = figure8_problem()
        planner = CommPlanner(problem)
        state = TimelineState.for_problem(problem)
        slots = []
        arrival = planner.transfer(
            state, ("A", "B"), "P1", "P3", ready=0.0, collect=slots
        )
        # A->B costs 0.5 per link, two hops.
        assert arrival == pytest.approx(1.0)
        assert [s.link for s in slots] == ["L1.2", "L2.3"]
        assert slots[0].hop == 0 and slots[1].hop == 1
        assert slots[1].route_length == 2
        # The relay then holds the data too.
        assert state.arrival(("A", "B"), "P3") == pytest.approx(1.0)

    def test_ready_time_respected(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrival = planner.transfer(state, ("E", "O"), "P3", "P1", ready=7.0)
        assert arrival == pytest.approx(8.0)  # E->O costs 1.0


class TestBroadcast:
    def test_single_frame_serves_bus_destinations(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P3"], ready=3.0, collect=slots
        )
        assert len(slots) == 1
        assert set(slots[0].destinations) == {"P2", "P3"}
        assert arrivals == {"P2": 3.5, "P3": 3.5}
        assert state.link_free["bus"] == pytest.approx(3.5)

    def test_broadcast_on_p2p_falls_back_to_unicasts(self, p2p_problem):
        planner = CommPlanner(p2p_problem)
        state = TimelineState.for_problem(p2p_problem)
        slots = []
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P3"], ready=3.0, collect=slots
        )
        assert len(slots) == 2
        assert {s.link for s in slots} == {"L1.2", "L1.3"}
        # Parallel links: both arrive at 3.5.
        assert arrivals["P2"] == pytest.approx(3.5)
        assert arrivals["P3"] == pytest.approx(3.5)

    def test_broadcast_skips_sender(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P1", "P2"], ready=1.0
        )
        assert arrivals["P1"] == 1.0  # local, no frame
        assert arrivals["P2"] == pytest.approx(1.5)

    def test_broadcast_deduplicates_destinations(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P2"], ready=0.0, collect=slots
        )
        assert len(slots) == 1
        assert slots[0].destinations == ("P2",)


class TestTentativeTransfer:
    def test_matches_transfer_and_writes_nothing(self):
        problem = figure8_problem()
        planner = CommPlanner(problem)
        state = TimelineState.for_problem(problem)
        state.link_free["L2.3"] = 4.0
        reads = set()
        arrival, held = planner.tentative_transfer(
            state, {}, ("A", "B"), "P1", "P3", 0.0, reads
        )
        assert state.link_free == {"L1.2": 0.0, "L2.3": 4.0}
        assert reads == {"L1.2", "L2.3"}
        committed = state.clone()
        assert arrival == planner.transfer(
            committed, ("A", "B"), "P1", "P3", ready=0.0
        )
        assert dict(held) == {
            link: committed.link_free[link] for link in ("L1.2", "L2.3")
        }

    def test_pending_frontiers_shadow_committed_ones(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        pending = {}
        first, held = planner.tentative_transfer(
            state, pending, ("A", "B"), "P1", "P2", 0.0, set()
        )
        assert pending == {} and first == pytest.approx(0.5)
        pending.update(held)
        second, _ = planner.tentative_transfer(
            state, pending, ("A", "C"), "P1", "P3", 0.0, set()
        )
        assert second == pytest.approx(1.0)  # waits for the held bus
        assert state.link_free["bus"] == 0.0

    @pytest.mark.parametrize(
        "make", [first_example_problem, second_example_problem]
    )
    def test_via_bus_matches_one_destination_broadcast(self, make):
        problem = make(failures=1)
        planner = CommPlanner(problem)
        state = TimelineState.for_problem(problem)
        dep = ("A", "B")
        reads = set()
        arrival, held = planner.tentative_transfer(
            state, {}, dep, "P1", "P2", 1.0, reads, via_bus=True
        )
        committed = state.clone()
        arrivals = planner.broadcast(committed, dep, "P1", ["P2"], 1.0)
        assert arrival == arrivals["P2"]
        assert reads == {link for link, _end in held}
        assert dict(held) == {
            link: end for link, end in committed.link_free.items() if end
        }

    def test_same_processor_is_free(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        reads = set()
        assert planner.tentative_transfer(
            state, {}, ("A", "B"), "P1", "P1", 2.0, reads
        ) == (2.0, ())
        assert reads == set()

