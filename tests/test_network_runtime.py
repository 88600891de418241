"""Unit tests for the runtime network model."""

import pytest

from repro.paper.examples import figure8_problem, first_example_problem
from repro.sim.engine import Simulator
from repro.sim.faults import FailureScenario
from repro.sim.network import NetworkRuntime
from repro.sim.trace import IterationTrace


def make_network(problem, scenario=None):
    sim = Simulator()
    trace = IterationTrace()
    deliveries = []
    observations = []
    network = NetworkRuntime(
        sim,
        problem,
        scenario or FailureScenario.none(),
        trace,
        lambda dep, dest, t, payload=None: deliveries.append((dep, dest, t)),
        lambda dep, sender, link, t: observations.append((dep, sender, link, t)),
    )
    return sim, network, trace, deliveries, observations


def _call(callback, _unused):
    callback()


class TestBusDispatch:
    def test_broadcast_single_frame(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries, observations = make_network(problem)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2", "P3"]), None)
        sim.run()
        assert len(trace.frames) == 1
        frame = trace.frames[0]
        assert frame.start == 1.0 and frame.end == pytest.approx(1.5)
        assert set(frame.destinations) == {"P2", "P3"}
        assert sorted(d[1] for d in deliveries) == ["P2", "P3"]
        assert observations[0][2] == "bus"

    def test_serialization_on_bus(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries, _ = make_network(problem)

        def send_two():
            network.dispatch(("A", "B"), "P1", ["P2"])
            network.dispatch(("A", "C"), "P1", ["P3"])

        sim.at(0.0, _call, send_two, None)
        sim.run()
        assert trace.frames[0].end == pytest.approx(0.5)
        assert trace.frames[1].start == pytest.approx(0.5)

    def test_self_destination_ignored(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries, _ = make_network(problem)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P1"]), None)
        sim.run()
        assert trace.frames == []
        assert deliveries == []


class TestFailures:
    def test_sender_dead_before_start_sends_nothing(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P1", at=0.5)
        sim, network, trace, deliveries, _ = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2"]), None)
        sim.run()
        assert trace.frames == []
        assert deliveries == []

    def test_sender_dying_mid_frame_loses_it(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P1", at=1.2)
        sim, network, trace, deliveries, _ = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2"]), None)
        sim.run()
        assert len(trace.frames) == 1
        assert not trace.frames[0].delivered
        assert deliveries == []

    def test_dead_destination_not_delivered(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P3", at=0.0)
        sim, network, trace, deliveries, _ = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2", "P3"]), None)
        sim.run()
        assert [d[1] for d in deliveries] == ["P2"]


class TestRoutedTransfers:
    def test_two_hop_route_store_and_forward(self):
        problem = figure8_problem()
        sim, network, trace, deliveries, _ = make_network(problem)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        assert [f.link for f in trace.frames] == ["L1.2", "L2.3"]
        assert trace.frames[1].start == pytest.approx(trace.frames[0].end)
        # The relay P2 and the final destination P3 both receive.
        assert sorted(d[1] for d in deliveries) == ["P2", "P3"]

    def test_dead_relay_kills_the_route(self):
        problem = figure8_problem()
        scenario = FailureScenario.crash("P2", at=0.0)
        sim, network, trace, deliveries, _ = make_network(problem, scenario)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        # First hop transmits (P1 alive) but P2 never forwards.
        assert [f.link for f in trace.frames] == ["L1.2"]
        assert deliveries == []  # P2 is dead: no delivery anywhere

    def test_relay_dying_mid_route(self):
        problem = figure8_problem()
        scenario = FailureScenario.crash("P2", at=0.6)
        sim, network, trace, deliveries, _ = make_network(problem, scenario)
        # A->B costs 0.5 per hop; P2 receives at 0.5, dies at 0.6,
        # so the forward (0.5-1.0) is lost mid-frame.
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        assert len(trace.frames) == 2
        assert trace.frames[0].delivered
        assert not trace.frames[1].delivered
        assert [d[1] for d in deliveries] == ["P2"]

    def test_is_bus(self):
        problem = first_example_problem(1)
        _, network, _, _, _ = make_network(problem)
        assert network.is_bus("bus")
