"""Architecture model: processors and communication links (paper Section 4.3).

The target architecture is a network of processors connected by
bidirectional communication links.  Each processor owns one
*computation unit* (which sequentially executes operations) plus one
*communication unit* per link it is attached to (which sequentially
executes data transfers, called *comms*).

Links come in two kinds:

``POINT_TO_POINT``
    Connects exactly two processors.  Distinct point-to-point links can
    transfer data in parallel — this is what makes the paper's second
    solution (replicated comms) attractive.

``BUS``
    A multi-point link shared by two or more processors.  All comms on
    a bus are serialized by the link arbiter, and every frame is
    physically observable by every attached processor (broadcast) —
    this is what makes the paper's first solution (timeout-based
    take-over) attractive, since backups can snoop the main replica's
    send.

The architecture is modeled as a non-oriented hypergraph: vertices are
computation/communication units; a bus is a single hyperedge joining
several communication units.  For routing purposes we also keep a
processor-level adjacency map: each processor's one-hop neighbours,
each with the sorted names of the links joining the two.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "LinkKind",
    "Processor",
    "Link",
    "CommunicationUnit",
    "Architecture",
    "ArchitectureError",
    "bus_architecture",
    "fully_connected_architecture",
]


class ArchitectureError(ValueError):
    """Raised when an architecture graph is malformed or misused."""


class LinkKind(enum.Enum):
    """The two link kinds of the AAA architecture model."""

    POINT_TO_POINT = "point-to-point"
    BUS = "bus"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Processor:
    """A processor: one computation unit plus local RAM.

    ``name`` identifies the processor.  ``description`` is free-form
    (e.g. the component type: RISC, DSP, micro-controller...).
    """

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("processor name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Link:
    """A communication link joining two or more processors."""

    name: str
    endpoints: FrozenSet[str]
    kind: LinkKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("link name must be non-empty")
        if self.kind is LinkKind.POINT_TO_POINT and len(self.endpoints) != 2:
            raise ArchitectureError(
                f"point-to-point link {self.name!r} must join exactly two "
                f"processors, got {sorted(self.endpoints)}"
            )
        if self.kind is LinkKind.BUS and len(self.endpoints) < 2:
            raise ArchitectureError(
                f"bus {self.name!r} must join at least two processors"
            )

    @property
    def is_bus(self) -> bool:
        return self.kind is LinkKind.BUS

    def connects(self, proc_a: str, proc_b: str) -> bool:
        """True when both processors are attached to this link."""
        return proc_a in self.endpoints and proc_b in self.endpoints

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CommunicationUnit:
    """The interface of one processor to one link.

    In the paper's hypergraph each communication unit is a vertex; the
    executive associates a *fail flag* to each of them (Section 5.5) so
    that failure knowledge can be propagated.
    """

    processor: str
    link: str

    def __str__(self) -> str:
        return f"{self.processor}.{self.link}"


class Architecture:
    """A network of processors connected by links.

    Build with :meth:`add_processor` then :meth:`add_link` /
    :meth:`add_bus`.  The helper constructors
    :func:`bus_architecture` and :func:`fully_connected_architecture`
    cover the two shapes used throughout the paper.
    """

    def __init__(self, name: str = "architecture") -> None:
        self.name = name
        self._processors: Dict[str, Processor] = {}
        self._links: Dict[str, Link] = {}
        # processor -> neighbour -> sorted names of the links joining them
        self._adjacency: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_processor(self, name: str, description: str = "") -> Processor:
        """Add a processor and return it."""
        if name in self._processors:
            raise ArchitectureError(f"duplicate processor name {name!r}")
        proc = Processor(name, description)
        self._processors[name] = proc
        self._adjacency[name] = {}
        return proc

    def add_link(self, name: str, proc_a: str, proc_b: str) -> Link:
        """Add a point-to-point link between two processors."""
        return self._add(name, frozenset((proc_a, proc_b)), LinkKind.POINT_TO_POINT)

    def add_bus(self, name: str, endpoints: Iterable[str]) -> Link:
        """Add a multi-point link (bus) joining ``endpoints``."""
        return self._add(name, frozenset(endpoints), LinkKind.BUS)

    def _add(self, name: str, endpoints: FrozenSet[str], kind: LinkKind) -> Link:
        if name in self._links:
            raise ArchitectureError(f"duplicate link name {name!r}")
        for proc in endpoints:
            if proc not in self._processors:
                raise ArchitectureError(f"unknown processor {proc!r}")
        link = Link(name, endpoints, kind)
        self._links[name] = link
        for proc_a, proc_b in itertools.permutations(sorted(endpoints), 2):
            joining = self._adjacency[proc_a].get(proc_b, ()) + (name,)
            self._adjacency[proc_a][proc_b] = tuple(sorted(joining))
        return link

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._processors

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self._processors.values())

    def processor(self, name: str) -> Processor:
        """Return the processor called ``name``."""
        try:
            return self._processors[name]
        except KeyError:
            raise ArchitectureError(f"unknown processor {name!r}") from None

    def link(self, name: str) -> Link:
        """Return the link called ``name``."""
        try:
            return self._links[name]
        except KeyError:
            raise ArchitectureError(f"unknown link {name!r}") from None

    @property
    def processors(self) -> List[Processor]:
        """All processors, in insertion order."""
        return list(self._processors.values())

    @property
    def processor_names(self) -> List[str]:
        """All processor names, in insertion order."""
        return list(self._processors)

    @property
    def links(self) -> List[Link]:
        """All links, in insertion order."""
        return list(self._links.values())

    @property
    def link_names(self) -> List[str]:
        """All link names, in insertion order."""
        return list(self._links)

    def links_of(self, proc: str) -> List[Link]:
        """All links the processor is attached to."""
        self.processor(proc)
        return [link for link in self._links.values() if proc in link.endpoints]

    def links_between(self, proc_a: str, proc_b: str) -> List[Link]:
        """All links directly connecting the two processors."""
        self.processor(proc_a)
        self.processor(proc_b)
        return [
            link for link in self._links.values() if link.connects(proc_a, proc_b)
        ]

    def communication_units(self) -> List[CommunicationUnit]:
        """All (processor, link) attachment points."""
        return [
            CommunicationUnit(proc, link.name)
            for link in self._links.values()
            for proc in sorted(link.endpoints)
        ]

    def neighbors(self, proc: str) -> List[str]:
        """Processors reachable from ``proc`` in one hop."""
        self.processor(proc)
        return sorted(self._adjacency[proc])

    def adjacency(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Processor -> one-hop neighbour -> sorted names of the links
        joining the two (a bus joins every pair of its processors).
        A copy: changing it leaves the architecture as it is."""
        return {proc: dict(nbrs) for proc, nbrs in self._adjacency.items()}

    @property
    def is_single_bus(self) -> bool:
        """True when the whole network is exactly one bus joining all
        processors — the architecture shape the paper's first solution
        targets (every frame is observable by every processor)."""
        if len(self._links) != 1:
            return False
        (link,) = self._links.values()
        return link.is_bus and link.endpoints == frozenset(self._processors)

    @property
    def has_bus(self) -> bool:
        """True when at least one link is a multi-point link."""
        return any(link.is_bus for link in self._links.values())

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def routing_graph(self) -> "networkx.MultiGraph":
        """Processor-level networkx multigraph, one edge per link per
        processor pair it joins, keyed by link name.  An adapter for
        tests and users: it imports networkx when called, and nothing
        in the package calls it."""
        import networkx

        graph = networkx.MultiGraph()
        graph.add_nodes_from(self._processors)
        for link in self._links.values():
            for proc_a, proc_b in itertools.combinations(sorted(link.endpoints), 2):
                graph.add_edge(proc_a, proc_b, key=link.name, link=link.name)
        return graph

    def is_connected(self) -> bool:
        """True when every processor can reach every other one."""
        return self.connectivity_after_failures(())

    def cut_processors(self) -> List[str]:
        """Processors whose death disconnects the surviving network.

        A schedule can only tolerate the failure of such an
        articulation point if every data flow can be served *within*
        each resulting segment; the K-fault certifier detects the
        violation, and this query lets users diagnose it up front.
        """
        if len(self._processors) <= 2:
            return []
        return sorted(_articulation_points(self._adjacency))

    def connectivity_after_failures(self, failed: Iterable[str]) -> bool:
        """True when surviving processors still form a connected network.

        A processor failure takes down all its communication units
        (Section 5.5), so a route through a failed processor is dead.
        """
        failed_set = set(failed)
        alive = [proc for proc in self._processors if proc not in failed_set]
        if len(alive) <= 1:
            return True
        seen = {alive[0]}
        frontier = [alive[0]]
        while frontier:
            for nbr in self._adjacency[frontier.pop()]:
                if nbr not in seen and nbr not in failed_set:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(alive)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate structural invariants; raise on violation."""
        if not self._processors:
            raise ArchitectureError("architecture has no processor")
        if len(self._processors) > 1 and not self._links:
            raise ArchitectureError(
                "multi-processor architecture has no communication link"
            )
        if not self.is_connected():
            raise ArchitectureError("architecture network is not connected")

    def is_valid(self) -> bool:
        """True when :meth:`check` passes."""
        try:
            self.check()
        except ArchitectureError:
            return False
        return True

    def copy(self, name: Optional[str] = None) -> "Architecture":
        """Deep copy of this architecture."""
        clone = Architecture(name or self.name)
        for proc in self._processors.values():
            clone.add_processor(proc.name, proc.description)
        for link in self._links.values():
            clone._add(link.name, link.endpoints, link.kind)
        return clone

    def __repr__(self) -> str:
        return (
            f"Architecture({self.name!r}, processors={len(self)}, "
            f"links={len(self._links)})"
        )


def _articulation_points(adjacency: Dict[str, Dict[str, Tuple[str, ...]]]) -> Set[str]:
    """Tarjan's articulation points of an undirected adjacency map (an
    iterative depth-first search, one per connected component)."""
    depth: Dict[str, int] = {}
    low: Dict[str, int] = {}
    cuts: Set[str] = set()
    for root in adjacency:
        if root in depth:
            continue
        depth[root] = low[root] = 0
        root_children = 0
        # (node, its DFS parent, iterator over its neighbours)
        stack = [(root, None, iter(adjacency[root]))]
        while stack:
            node, parent, nbrs = stack[-1]
            nbr = next(nbrs, None)
            if nbr is None:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[node])
                    if parent != root and low[node] >= depth[parent]:
                        cuts.add(parent)
            elif nbr not in depth:
                depth[nbr] = low[nbr] = depth[node] + 1
                if node == root:
                    root_children += 1
                stack.append((nbr, node, iter(adjacency[nbr])))
            elif nbr != parent:
                low[node] = min(low[node], depth[nbr])
        if root_children > 1:
            cuts.add(root)
    return cuts


# ----------------------------------------------------------------------
# Convenience constructors for the two canonical shapes of the paper
# ----------------------------------------------------------------------

def bus_architecture(
    processor_names: Iterable[str],
    bus_name: str = "bus",
    name: str = "bus-architecture",
) -> Architecture:
    """All processors joined by a single multi-point link.

    This is the shape of Figure 13(b): the architecture the paper's
    first solution targets.
    """
    arch = Architecture(name)
    names = list(processor_names)
    for proc in names:
        arch.add_processor(proc)
    arch.add_bus(bus_name, names)
    return arch


def fully_connected_architecture(
    processor_names: Iterable[str],
    name: str = "p2p-architecture",
    link_prefix: str = "L",
) -> Architecture:
    """One point-to-point link per processor pair.

    This is the shape of Figure 21(b): the architecture the paper's
    second solution targets.  Links are named ``L1.2`` style from the
    1-based positions of their endpoints.
    """
    arch = Architecture(name)
    names = list(processor_names)
    for proc in names:
        arch.add_processor(proc)
    for (i, proc_a), (j, proc_b) in itertools.combinations(enumerate(names, 1), 2):
        arch.add_link(f"{link_prefix}{i}.{j}", proc_a, proc_b)
    return arch
