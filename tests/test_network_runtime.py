"""Unit tests for the runtime frame model.

The frames are the protocol's (:mod:`repro.sim.protocol`), run here in
the executive's world: each test dispatches a send straight through
:meth:`~repro.sim.protocol.Protocol.dispatch` on a runtime whose
processes are not started, and reads the frames its trace records and
the deliveries and observes the frame model reports.
"""

import pytest

from repro.core import schedule_baseline
from repro.paper.examples import figure8_problem, first_example_problem
from repro.sim.executive import ExecutiveRuntime
from repro.sim.faults import FailureScenario


class Recorder(ExecutiveRuntime):
    """An executive that logs every delivery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deliveries = []

    def _deliver(self, dep, dest, sender, takeover, payload):
        self.deliveries.append((dep, dest, self.sim.now))
        super()._deliver(dep, dest, sender, takeover, payload)


def make_network(problem, scenario=None):
    runtime = Recorder(
        schedule_baseline(problem).schedule, scenario, detection="snoop"
    )
    return runtime.sim, runtime, runtime.trace, runtime.deliveries


def _call(callback, _unused):
    callback()


class TestBusDispatch:
    def test_broadcast_single_frame(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries = make_network(problem)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2", "P3"]), None)
        sim.run()
        assert len(trace.frames) == 1
        frame = trace.frames[0]
        assert frame.start == 1.0 and frame.end == pytest.approx(1.5)
        assert set(frame.destinations) == {"P2", "P3"}
        assert sorted(d[1] for d in deliveries) == ["P2", "P3"]
        # Every bus member snoops the frame: the dependency is observed.
        assert network.observed == {("A", "B"): ("P1", pytest.approx(1.5))}
        assert frame.link == "bus"

    def test_serialization_on_bus(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries = make_network(problem)

        def send_two():
            network.dispatch(("A", "B"), "P1", ["P2"])
            network.dispatch(("A", "C"), "P1", ["P3"])

        sim.at(0.0, _call, send_two, None)
        sim.run()
        assert trace.frames[0].end == pytest.approx(0.5)
        assert trace.frames[1].start == pytest.approx(0.5)

    def test_self_destination_ignored(self):
        problem = first_example_problem(1)
        sim, network, trace, deliveries = make_network(problem)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P1"]), None)
        sim.run()
        assert trace.frames == []
        assert deliveries == []


class TestFailures:
    def test_sender_dead_before_start_sends_nothing(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P1", at=0.5)
        sim, network, trace, deliveries = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2"]), None)
        sim.run()
        assert trace.frames == []
        assert deliveries == []

    def test_sender_dying_mid_frame_loses_it(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P1", at=1.2)
        sim, network, trace, deliveries = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2"]), None)
        sim.run()
        assert len(trace.frames) == 1
        assert not trace.frames[0].delivered
        assert deliveries == []

    def test_dead_destination_not_delivered(self):
        problem = first_example_problem(1)
        scenario = FailureScenario.crash("P3", at=0.0)
        sim, network, trace, deliveries = make_network(problem, scenario)
        sim.at(1.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P2", "P3"]), None)
        sim.run()
        assert [d[1] for d in deliveries] == ["P2"]


class TestRoutedTransfers:
    def test_two_hop_route_store_and_forward(self):
        problem = figure8_problem()
        sim, network, trace, deliveries = make_network(problem)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        assert [f.link for f in trace.frames] == ["L1.2", "L2.3"]
        assert trace.frames[1].start == pytest.approx(trace.frames[0].end)
        # The relay P2 and the final destination P3 both receive.
        assert sorted(d[1] for d in deliveries) == ["P2", "P3"]

    def test_dead_relay_kills_the_route(self):
        problem = figure8_problem()
        scenario = FailureScenario.crash("P2", at=0.0)
        sim, network, trace, deliveries = make_network(problem, scenario)
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        # First hop transmits (P1 alive) but P2 never forwards.
        assert [f.link for f in trace.frames] == ["L1.2"]
        assert deliveries == []  # P2 is dead: no delivery anywhere

    def test_relay_dying_mid_route(self):
        problem = figure8_problem()
        scenario = FailureScenario.crash("P2", at=0.6)
        sim, network, trace, deliveries = make_network(problem, scenario)
        # A->B costs 0.5 per hop; P2 receives at 0.5, dies at 0.6,
        # so the forward (0.5-1.0) is lost mid-frame.
        sim.at(0.0, _call, lambda: network.dispatch(("A", "B"), "P1", ["P3"]), None)
        sim.run()
        assert len(trace.frames) == 2
        assert trace.frames[0].delivered
        assert not trace.frames[1].delivered
        assert [d[1] for d in deliveries] == ["P2"]

    def test_is_bus(self):
        # Under snoop detection a frame is observable exactly on a bus.
        _, network, _, _ = make_network(first_example_problem(1))
        assert network.observable["bus"]
        _, routed, _, _ = make_network(figure8_problem())
        assert not any(routed.observable.values())
