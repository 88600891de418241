"""Unit tests for static routing."""

import itertools

import networkx as nx
import pytest

from repro.graphs.architecture import (
    Architecture,
    ArchitectureError,
    bus_architecture,
    fully_connected_architecture,
)
from repro.graphs.constraints import CommunicationTable
from repro.graphs.routing import Route, RoutingError, RoutingTable
from repro.paper.examples import figure8_architecture


class TestRoute:
    def test_local_route(self):
        route = Route(("P1",), ())
        assert route.is_local
        assert route.hop_count == 0
        assert route.source == route.destination == "P1"
        assert "local" in str(route)

    def test_malformed_route_rejected(self):
        with pytest.raises(RoutingError):
            Route(("P1", "P2"), ())

    def test_hops(self):
        route = Route(("P1", "P2", "P3"), ("L12", "L23"))
        assert route.hops() == [("P1", "P2", "L12"), ("P2", "P3", "L23")]
        assert route.hop_count == 2

    def test_traverses_only_counts_relays(self):
        route = Route(("P1", "P2", "P3"), ("L12", "L23"))
        assert route.traverses("P2")
        assert not route.traverses("P1")
        assert not route.traverses("P3")

    def test_transfer_time(self):
        table = CommunicationTable.uniform_per_dependency(
            {("a", "b"): 0.5}, ["L12", "L23"]
        )
        route = Route(("P1", "P2", "P3"), ("L12", "L23"))
        assert route.transfer_time(("a", "b"), table) == pytest.approx(1.0)


class TestRoutingTable:
    def test_figure8_routes_through_p2(self):
        """The paper's Section 5.5 example: P1 <-> P3 relayed by P2."""
        table = RoutingTable(figure8_architecture())
        route = table.route("P1", "P3")
        assert route.processors == ("P1", "P2", "P3")
        assert route.links == ("L1.2", "L2.3")
        assert route.traverses("P2")

    def test_self_route_is_local(self):
        table = RoutingTable(figure8_architecture())
        assert table.route("P2", "P2").is_local

    def test_bus_is_single_hop_for_all_pairs(self):
        table = RoutingTable(bus_architecture(["P1", "P2", "P3"]))
        for src, dst in (("P1", "P2"), ("P1", "P3"), ("P3", "P2")):
            route = table.route(src, dst)
            assert route.hop_count == 1
            assert route.links == ("bus",)

    def test_triangle_direct_links(self):
        table = RoutingTable(fully_connected_architecture(["P1", "P2", "P3"]))
        assert table.route("P1", "P3").links == ("L1.3",)
        assert table.route("P2", "P3").links == ("L2.3",)

    def test_max_hops(self):
        assert RoutingTable(figure8_architecture()).max_hops() == 2
        assert RoutingTable(bus_architecture(["P1", "P2"])).max_hops() == 1

    def test_disconnected_architecture_rejected(self):
        arch = Architecture()
        arch.add_processor("P1")
        arch.add_processor("P2")
        with pytest.raises(Exception):
            RoutingTable(arch)

    def test_routes_surviving(self):
        table = RoutingTable(figure8_architecture())
        surviving = table.routes_surviving({"P2"})
        # Anything touching P2, including relayed P1<->P3, is gone.
        assert ("P1", "P3") not in surviving
        assert ("P1", "P2") not in surviving
        assert ("P1", "P1") in surviving

    def test_deterministic_tie_break_on_parallel_links(self):
        arch = Architecture()
        arch.add_processor("P1")
        arch.add_processor("P2")
        arch.add_link("La", "P1", "P2")
        arch.add_link("Lb", "P1", "P2")
        table = RoutingTable(arch)
        # Lexicographically smallest link wins.
        assert table.route("P1", "P2").links == ("La",)

    def test_route_for_dependency_prefers_cheap_link(self):
        arch = Architecture()
        arch.add_processor("P1")
        arch.add_processor("P2")
        arch.add_link("La", "P1", "P2")
        arch.add_link("Lb", "P1", "P2")
        comm = CommunicationTable()
        comm.set_duration(("x", "y"), "La", 2.0)
        comm.set_duration(("x", "y"), "Lb", 0.5)
        table = RoutingTable(arch)
        route = table.route_for_dependency("P1", "P2", ("x", "y"), comm)
        assert route.links == ("Lb",)

    def test_route_for_dependency_local(self):
        table = RoutingTable(bus_architecture(["P1", "P2"]))
        comm = CommunicationTable()
        route = table.route_for_dependency("P1", "P1", ("x", "y"), comm)
        assert route.is_local

    def test_all_routes_complete(self):
        arch = figure8_architecture()
        table = RoutingTable(arch)
        routes = table.all_routes()
        assert len(routes) == 9  # 3 processors, ordered pairs + self


def _meshed_architecture() -> Architecture:
    """Parallel links, a bus beside a point-to-point link, and pairs
    joined by several minimum-hop paths (the square P1-P2-P4-P3)."""
    arch = Architecture("meshed")
    for proc in ("P1", "P2", "P3", "P4", "P5", "P6"):
        arch.add_processor(proc)
    arch.add_link("L12", "P1", "P2")
    arch.add_link("L13", "P1", "P3")
    arch.add_link("L24a", "P2", "P4")
    arch.add_link("L24b", "P2", "P4")
    arch.add_link("L34", "P3", "P4")
    arch.add_bus("bus", ["P4", "P5", "P6"])
    arch.add_link("L56", "P5", "P6")
    return arch


def _varied_comm(arch: Architecture, deps) -> CommunicationTable:
    """Distinct per-(dependency, link) durations, ties included."""
    comm = CommunicationTable()
    for d, dep in enumerate(deps):
        for l, link in enumerate(arch.link_names):
            comm.set_duration(dep, link, float((3 * d + 5 * l) % 7 + 1))
    return comm


def _candidates(arch: Architecture, src: str, dst: str):
    """Every minimum-hop route: each min-hop path times each choice of
    parallel link per hop."""
    graph = arch.routing_graph()
    for path in nx.all_shortest_paths(graph, src, dst):
        per_hop = [sorted(graph[a][b]) for a, b in zip(path, path[1:])]
        for links in itertools.product(*per_hop):
            yield Route(tuple(path), tuple(links))


class TestCompiledRoutingIndexes:
    """The indexes built at construction answer exactly like the
    definitions they replace."""

    DEPS = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]

    @pytest.mark.parametrize(
        "arch",
        [
            _meshed_architecture(),
            fully_connected_architecture(["P1", "P2", "P3", "P4"]),
            bus_architecture(["P1", "P2", "P3"]),
            figure8_architecture(),
        ],
        ids=["meshed", "p2p4", "bus3", "figure8"],
    )
    def test_route_for_dependency_is_the_brute_force_minimum(self, arch):
        table = RoutingTable(arch)
        comm = _varied_comm(arch, self.DEPS)
        names = arch.processor_names
        single = 0
        for src, dst in itertools.permutations(names, 2):
            candidates = list(_candidates(arch, src, dst))
            for dep in self.DEPS:
                chosen = table.route_for_dependency(src, dst, dep, comm)
                best = min(
                    candidates,
                    key=lambda r: (r.transfer_time(dep, comm), r.processors, r.links),
                )
                assert chosen == best, (src, dst, dep)
                if len(candidates) == 1:
                    assert chosen == table.route(src, dst)
            single += len(candidates) == 1
        assert single > 0

    def test_meshed_architecture_has_ranked_pairs(self):
        arch = _meshed_architecture()
        ranked = [
            (src, dst)
            for src, dst in itertools.permutations(arch.processor_names, 2)
            if len(list(_candidates(arch, src, dst))) > 1
        ]
        # Parallel links (P2-P4), the bus beside L56, and the square.
        assert {("P2", "P4"), ("P5", "P6"), ("P1", "P4")} <= set(ranked)

    @pytest.mark.parametrize(
        "arch",
        [_meshed_architecture(), fully_connected_architecture(["P1", "P2", "P3"])],
        ids=["meshed", "p2p3"],
    )
    def test_bus_links_index_matches_links_of(self, arch):
        table = RoutingTable(arch)
        for proc in arch.processor_names:
            assert list(table.bus_links(proc)) == [
                link for link in arch.links_of(proc) if link.is_bus
            ]

    def test_bus_links_rejects_unknown_processor(self):
        table = RoutingTable(_meshed_architecture())
        with pytest.raises(ArchitectureError):
            table.bus_links("P9")

    def test_hop_plan_annotates_the_dependency_route(self):
        arch = _meshed_architecture()
        table = RoutingTable(arch)
        comm = _varied_comm(arch, self.DEPS)
        for src, dst in itertools.permutations(arch.processor_names, 2):
            for dep in self.DEPS:
                route = table.route_for_dependency(src, dst, dep, comm)
                assert table.hop_plan(dep, src, dst, comm) == tuple(
                    (hop_from, hop_to, link, comm.duration(dep, link))
                    for hop_from, hop_to, link in route.hops()
                )

    def test_comm_plan_follows_the_table_passed(self):
        """Another table object flushes the memoized plans."""
        arch = _meshed_architecture()
        table = RoutingTable(arch)
        dep = self.DEPS[0]
        slow_bus = CommunicationTable()
        fast_bus = CommunicationTable()
        for link in arch.link_names:
            slow_bus.set_duration(dep, link, 9.0 if link == "bus" else 1.0)
            fast_bus.set_duration(dep, link, 1.0 if link == "bus" else 2.0)
        dests = ["P5", "P6"]
        assert table.frame_plan(dep, "P5", dests, slow_bus) == ((), ("P6",))
        assert table.frame_plan(dep, "P5", dests, fast_bus) == (
            (("bus", ("P6",)),),
            (),
        )
        assert table.hop_plan(dep, "P5", "P6", slow_bus) == (("P5", "P6", "L56", 1.0),)
        assert table.hop_plan(dep, "P5", "P6", fast_bus) == (("P5", "P6", "bus", 1.0),)
        assert table.frame_plan(dep, "P4", ["P4", "P5", "P5"], fast_bus) == (
            (("bus", ("P5",)),),
            (),
        )

    @pytest.mark.parametrize(
        "arch",
        [
            fully_connected_architecture(["P1", "P2", "P3", "P4"]),
            bus_architecture(["P1", "P2", "P3"]),
            _meshed_architecture(),
        ],
        ids=["p2p4", "bus3", "meshed"],
    )
    def test_frame_plan_matches_the_grouping_definition(self, arch):
        """Every sender, on and off a bus, with repeated destinations
        and the sender among them, gets the bus-or-unicast grouping of
        the definition below; a sender on no bus leaves no memo entry."""
        table = RoutingTable(arch)
        comm = _varied_comm(arch, self.DEPS)
        names = arch.processor_names

        def definition(dep, sender, dests):
            pending = [d for d in dict.fromkeys(dests) if d != sender]
            groups = []
            for link in arch.links_of(sender):
                if not link.is_bus or not pending:
                    continue
                served = [
                    dest
                    for dest in pending
                    if dest in link.endpoints
                    and comm.duration(dep, link.name)
                    <= table.route_for_dependency(sender, dest, dep, comm)
                    .transfer_time(dep, comm) + 1e-12
                ]
                if served:
                    groups.append((link.name, tuple(served)))
                    pending = [d for d in pending if d not in served]
            return tuple(groups), tuple(pending)

        for sender in names:
            for size in (1, 2, 3):
                for dests in itertools.permutations(names, size):
                    for asked in (list(dests), list(dests) + list(dests[:1])):
                        for dep in self.DEPS:
                            assert table.frame_plan(dep, sender, asked, comm) == (
                                definition(dep, sender, asked)
                            ), (sender, asked, dep)
        busless = {p for p in names if not any(l.is_bus for l in arch.links_of(p))}
        assert all(key[1] not in busless for key in table._frame_plans)
