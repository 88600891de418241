"""The plain graph tables answer exactly as networkx does.

``AlgorithmGraph``, ``Architecture`` and ``RoutingTable`` keep their own
adjacency tables and run textbook algorithms over them (Kahn's
algorithm with a heap, BFS, Tarjan's articulation points).  Here
networkx, a test-only dependency, is the reference: on random DAGs,
random cyclic graphs and random architectures with buses and parallel
links, every answer and every order must be the one networkx gives, or
the one the networkx-based implementation derived from it.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.algorithm import AlgorithmGraph, AlgorithmGraphError
from repro.graphs.architecture import Architecture
from repro.graphs.constraints import CommunicationTable
from repro.graphs.routing import Route, RoutingTable

FAST = settings(max_examples=60, deadline=None)

NAMES = st.text(alphabet="abAB19_", min_size=1, max_size=3)


@st.composite
def digraph_specs(draw, acyclic):
    """``(names, arcs)``: names in insertion order, arcs in the order
    they are added.  Acyclic specs orient every arc along a random
    ranking of the names, so insertion order and name order both differ
    from any topological order."""
    names = draw(st.lists(NAMES, min_size=1, max_size=10, unique=True))
    pairs = list(itertools.permutations(names, 2))
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True)) if pairs else []
    if acyclic:
        rank = {name: i for i, name in enumerate(draw(st.permutations(names)))}
        arcs = list(
            dict.fromkeys((a, b) if rank[a] < rank[b] else (b, a) for a, b in arcs)
        )
    return names, arcs


def build(names, arcs):
    graph = AlgorithmGraph("random")
    oracle = nx.DiGraph()
    for name in names:
        graph.add_comp(name)
        oracle.add_node(name)
    for src, dst in arcs:
        graph.add_dependency(src, dst)
        oracle.add_edge(src, dst)
    return graph, oracle


class TestAlgorithmTables:
    def test_dependencies_are_source_major(self):
        graph = AlgorithmGraph()
        for name in ("a", "b", "c"):
            graph.add_comp(name)
        graph.add_dependency("b", "c")
        graph.add_dependency("a", "b")
        graph.add_dependency("a", "c")
        assert [str(dep) for dep in graph.dependencies] == ["a->b", "a->c", "b->c"]
        assert [str(dep) for dep in graph.copy().dependencies] == [
            "a->b",
            "a->c",
            "b->c",
        ]

    @FAST
    @given(digraph_specs(acyclic=True), st.data())
    def test_dag_queries_match_networkx(self, spec, data):
        graph, oracle = build(*spec)
        assert graph.find_cycle() is None
        assert graph.topological_order() == list(
            nx.lexicographical_topological_sort(oracle)
        )
        assert graph.inputs == [n for n in oracle if oracle.in_degree(n) == 0]
        assert graph.outputs == [n for n in oracle if oracle.out_degree(n) == 0]
        assert [dep.key for dep in graph.dependencies] == list(oracle.edges())
        assert [dep.key for dep in graph.copy().dependencies] == list(oracle.edges())
        for name in oracle:
            assert graph.predecessors(name) == sorted(oracle.predecessors(name))
            assert graph.successors(name) == sorted(oracle.successors(name))
            assert graph.ancestors(name) == nx.ancestors(oracle, name)
            assert graph.descendants(name) == nx.descendants(oracle, name)
        weight = {
            name: float(data.draw(st.integers(min_value=0, max_value=9)))
            for name in oracle
        }
        # Node weights as edge weights, from a fresh root to every node.
        weighted = nx.DiGraph()
        for src, dst in oracle.edges():
            weighted.add_edge(src, dst, w=weight[dst])
        for name in oracle:
            weighted.add_edge(("root",), name, w=weight[name])
        assert graph.longest_path_length(weight) == nx.dag_longest_path_length(
            weighted, weight="w"
        )

    @FAST
    @given(digraph_specs(acyclic=False))
    def test_reported_cycle_is_a_real_cycle(self, spec):
        graph, oracle = build(*spec)
        cycle = graph.find_cycle()
        if nx.is_directed_acyclic_graph(oracle):
            assert cycle is None
            return
        assert cycle
        assert all(oracle.has_edge(u, v) for u, v in cycle)
        assert all(v == nxt for (_, v), (nxt, _) in zip(cycle, cycle[1:]))
        assert cycle[-1][1] == cycle[0][0]
        assert len({u for u, _ in cycle}) == len(cycle)
        assert cycle == [arc[:2] for arc in nx.find_cycle(oracle)]
        arcs = ", ".join(f"{u}->{v}" for u, v in cycle)
        with pytest.raises(AlgorithmGraphError, match="has a cycle: " + arcs):
            graph.topological_order()
        assert not graph.is_valid()


@st.composite
def architecture_specs(draw):
    """``(processors, links)``; each link is ``(name, kind,
    endpoints)``.  Names are random so that link-name tie-breaks vary;
    parallel links and buses beside point-to-point links occur."""
    processors = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    link_names = iter(draw(st.lists(NAMES, min_size=24, max_size=24, unique=True)))
    links = []
    if draw(st.booleans()):
        # A random spanning tree, so that the network is connected.
        for i, proc in enumerate(processors[1:], 1):
            other = processors[draw(st.integers(min_value=0, max_value=i - 1))]
            links.append((next(link_names), "p2p", (proc, other)))
    if len(processors) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            ends = draw(
                st.lists(
                    st.sampled_from(processors),
                    min_size=2,
                    max_size=len(processors),
                    unique=True,
                )
            )
            kind = "bus" if len(ends) > 2 or draw(st.booleans()) else "p2p"
            links.append((next(link_names), kind, tuple(ends)))
    return processors, links


def build_architecture(processors, links):
    arch = Architecture("random")
    oracle = nx.MultiGraph()
    for proc in processors:
        arch.add_processor(proc)
        oracle.add_node(proc)
    for name, kind, ends in links:
        if kind == "bus":
            arch.add_bus(name, ends)
        else:
            arch.add_link(name, *ends)
        for proc_a, proc_b in itertools.combinations(sorted(ends), 2):
            oracle.add_edge(proc_a, proc_b, key=name)
    return arch, oracle


def oracle_route(oracle, src, dst):
    """The networkx-based ``RoutingTable.route`` rank."""
    candidates = []
    for path in nx.all_shortest_paths(oracle, src, dst):
        links = [sorted(oracle[a][b])[0] for a, b in zip(path, path[1:])]
        candidates.append((tuple(path), tuple(links)))
    return Route(*min(candidates))


def oracle_route_for_dependency(oracle, src, dst, dep, comm):
    """The networkx-based ``RoutingTable.route_for_dependency`` rank."""
    if src == dst:
        return Route((src,), ())
    best = None
    for path in nx.all_shortest_paths(oracle, src, dst):
        links = [
            sorted(oracle[a][b], key=lambda name: (comm.duration(dep, name), name))[0]
            for a, b in zip(path, path[1:])
        ]
        route = Route(tuple(path), tuple(links))
        key = (route.transfer_time(dep, comm), route.processors, route.links)
        best = key if best is None or key < best else best
    return Route(best[1], best[2])


class TestArchitectureTables:
    @FAST
    @given(architecture_specs(), st.data())
    def test_connectivity_matches_networkx(self, spec, data):
        arch, oracle = build_architecture(*spec)
        assert arch.is_connected() == (
            len(oracle) <= 1 or nx.is_connected(oracle)
        )
        expected_cuts = (
            [] if len(oracle) <= 2 else sorted(nx.articulation_points(nx.Graph(oracle)))
        )
        assert arch.cut_processors() == expected_cuts
        for proc in oracle:
            assert arch.neighbors(proc) == sorted(oracle[proc])
        failed = data.draw(st.sets(st.sampled_from(list(oracle))))
        survivors = oracle.copy()
        survivors.remove_nodes_from(failed)
        assert arch.connectivity_after_failures(failed) == (
            len(survivors) <= 1 or nx.is_connected(survivors)
        )

    @FAST
    @given(architecture_specs(), st.data())
    def test_routes_match_networkx(self, spec, data):
        arch, oracle = build_architecture(*spec)
        if not arch.is_valid():
            return
        table = RoutingTable(arch)
        deps = [("a", "b"), ("b", "c"), ("c", "d")]
        comm = CommunicationTable()
        for dep in deps:
            for link in arch.link_names:
                duration = data.draw(st.integers(min_value=1, max_value=3))
                comm.set_duration(dep, link, float(duration))
        for src, dst in itertools.product(arch.processor_names, repeat=2):
            if src != dst:
                assert set(table._min_hop_paths[(src, dst)]) == {
                    tuple(path) for path in nx.all_shortest_paths(oracle, src, dst)
                }
                assert table.route(src, dst) == oracle_route(oracle, src, dst)
            for dep in deps:
                assert table.route_for_dependency(
                    src, dst, dep, comm
                ) == oracle_route_for_dependency(oracle, src, dst, dep, comm)


def test_the_package_loads_no_networkx():
    """networkx is a test-only oracle: the package, its CLI, the prover
    and the campaign import without it."""
    code = (
        "import sys, repro, repro.cli, repro.lint.proof, repro.obs.campaign\n"
        "print('networkx' in sys.modules)"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
    ).stdout
    assert loaded.strip() == "False"
