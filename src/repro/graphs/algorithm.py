"""Algorithm model: the data-flow graph of the AAA method (paper Section 4.2).

The algorithm is a directed acyclic data-flow graph.  Each vertex is an
*operation* and each edge is a *data-dependency* (a data-flow channel).
The graph is executed repeatedly, once per input event; one execution of
the whole graph is an *iteration*.

Operations come in three kinds (Section 4.2 of the paper):

``COMP``
    A pure computation: outputs depend only on inputs, no internal
    state, no side effect.  Comps are *safe* and may be replicated at
    will on any processor.

``MEM``
    A memory operation holding data between iterations, like a register
    in a Boolean circuit: its output (the value stored during the
    previous iteration) precedes its input (the value to store for the
    next iteration).  Mems are *memory-safe*: replicas must share the
    same initial value, after which their outputs stay deterministic.

``EXTIO``
    An external input/output operation tied to a sensor or actuator.
    Extios are *unsafe* (they have side effects); they may only run on
    the processors that control the corresponding device.  An *input*
    extio has no predecessor; an *output* extio has no successor.  The
    paper assumes two executions of an input extio within one iteration
    return the same value, which is what makes replication sound.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "OperationKind",
    "Operation",
    "Dependency",
    "AlgorithmGraph",
    "AlgorithmGraphError",
]


class AlgorithmGraphError(ValueError):
    """Raised when an algorithm graph is malformed or misused."""


class OperationKind(enum.Enum):
    """The three operation kinds of the AAA algorithm model."""

    COMP = "comp"
    MEM = "mem"
    EXTIO = "extio"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Operation:
    """A vertex of the algorithm graph.

    Parameters
    ----------
    name:
        Unique identifier of the operation within its graph.
    kind:
        One of :class:`OperationKind`.
    initial_value:
        Only meaningful for ``MEM`` operations: the value held before
        the first iteration.  All replicas of a mem are initialized
        with this same value (paper Section 5.4, item 2).
    """

    name: str
    kind: OperationKind = OperationKind.COMP
    initial_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise AlgorithmGraphError("operation name must be non-empty")
        if self.kind is not OperationKind.MEM and self.initial_value is not None:
            raise AlgorithmGraphError(
                f"operation {self.name!r}: only MEM operations carry an "
                f"initial value"
            )

    @property
    def is_safe(self) -> bool:
        """True when the operation may be freely replicated (comps)."""
        return self.kind is OperationKind.COMP

    @property
    def is_memory_safe(self) -> bool:
        """True for mems: replicable provided initial values agree."""
        return self.kind is OperationKind.MEM

    @property
    def is_unsafe(self) -> bool:
        """True for extios, whose replication is device-bound."""
        return self.kind is OperationKind.EXTIO

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Dependency:
    """An edge of the algorithm graph: a data-flow channel.

    A dependency carries the (abstract) output value of ``src`` to an
    input of ``dst``.  Its identity is the ordered pair of operation
    names; the optional ``label`` is purely informational.
    """

    src: str
    dst: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise AlgorithmGraphError(
                f"self-dependency {self.src!r} -> {self.dst!r} is not allowed"
            )

    @property
    def key(self) -> Tuple[str, str]:
        """The (src, dst) pair identifying this dependency."""
        return (self.src, self.dst)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


class AlgorithmGraph:
    """A directed acyclic data-flow graph of operations.

    The graph exposes the potential parallelism of the algorithm
    through its partial order.  It is the first of the two inputs of
    the AAA scheduling problem (the other being the architecture).

    Operations are added with :meth:`add_operation` (or the
    ``add_comp`` / ``add_mem`` / ``add_input`` / ``add_output``
    shorthands) and wired with :meth:`add_dependency`.  Each call
    updates plain tables (the dependency records per source, the sorted
    predecessor and successor names per operation), so queries read
    them without sorting or searching.
    """

    def __init__(self, name: str = "algorithm") -> None:
        self.name = name
        self._operations: Dict[str, Operation] = {}
        # Per source, its dependency records keyed by destination; both
        # levels keep insertion order (the order of ``dependencies``).
        self._out: Dict[str, Dict[str, Dependency]] = {}
        # Per operation, its predecessor and successor names, sorted.
        self._preds: Dict[str, Tuple[str, ...]] = {}
        self._succs: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, operation: Operation) -> Operation:
        """Add ``operation`` to the graph and return it.

        Raises :class:`AlgorithmGraphError` on duplicate names.
        """
        name = operation.name
        if name in self._operations:
            raise AlgorithmGraphError(f"duplicate operation name {name!r}")
        self._operations[name] = operation
        self._out[name] = {}
        self._preds[name] = ()
        self._succs[name] = ()
        return operation

    def add_comp(self, name: str) -> Operation:
        """Shorthand: add a computation operation."""
        return self.add_operation(Operation(name, OperationKind.COMP))

    def add_mem(self, name: str, initial_value: float = 0.0) -> Operation:
        """Shorthand: add a memory operation with an initial value."""
        return self.add_operation(
            Operation(name, OperationKind.MEM, initial_value=initial_value)
        )

    def add_extio(self, name: str) -> Operation:
        """Shorthand: add an external input/output operation."""
        return self.add_operation(Operation(name, OperationKind.EXTIO))

    # ``add_input``/``add_output`` are aliases that read better at call
    # sites; whether an extio is an input or an output is determined by
    # its position in the graph (no predecessor / no successor).
    add_input = add_extio
    add_output = add_extio

    def add_dependency(self, src: str, dst: str, label: str = "") -> Dependency:
        """Add the data-dependency ``src -> dst`` and return it."""
        for end in (src, dst):
            if end not in self._operations:
                raise AlgorithmGraphError(f"unknown operation {end!r}")
        dep = Dependency(src, dst, label)
        if dst in self._out[src]:
            raise AlgorithmGraphError(f"duplicate dependency {dep}")
        self._out[src][dst] = dep
        self._succs[src] = _insert_sorted(self._succs[src], dst)
        self._preds[dst] = _insert_sorted(self._preds[dst], src)
        return dep

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def operation(self, name: str) -> Operation:
        """Return the operation called ``name``."""
        try:
            return self._operations[name]
        except KeyError:
            raise AlgorithmGraphError(f"unknown operation {name!r}") from None

    @property
    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._operations.values())

    @property
    def operation_names(self) -> List[str]:
        """All operation names, in insertion order."""
        return list(self._operations)

    @property
    def dependencies(self) -> List[Dependency]:
        """All data-dependencies, source-major: the sources in operation
        insertion order, then each source's dependencies in the order
        they were added (not the global order of the
        :meth:`add_dependency` calls)."""
        return [dep for out in self._out.values() for dep in out.values()]

    def dependency(self, src: str, dst: str) -> Dependency:
        """Return the dependency ``src -> dst``."""
        try:
            return self._out[src][dst]
        except KeyError:
            raise AlgorithmGraphError(
                f"unknown dependency {src!r} -> {dst!r}"
            ) from None

    def predecessors(self, name: str) -> List[str]:
        """Names of the operations producing inputs of ``name``, sorted."""
        try:
            return list(self._preds[name])
        except KeyError:
            raise AlgorithmGraphError(f"unknown operation {name!r}") from None

    def successors(self, name: str) -> List[str]:
        """Names of the operations consuming outputs of ``name``, sorted."""
        try:
            return list(self._succs[name])
        except KeyError:
            raise AlgorithmGraphError(f"unknown operation {name!r}") from None

    def in_dependencies(self, name: str) -> List[Dependency]:
        """Dependencies entering ``name``."""
        return [self.dependency(p, name) for p in self.predecessors(name)]

    def out_dependencies(self, name: str) -> List[Dependency]:
        """Dependencies leaving ``name``."""
        return [self.dependency(name, s) for s in self.successors(name)]

    def arcs(self) -> Iterator[Tuple[str, str, Optional[Dependency]]]:
        """Every arc of the adjacency tables with its dependency record,
        or ``None`` where the record table lacks it: the raw storage,
        for consistency checks (lint rule FT102)."""
        for src, succs in self._succs.items():
            records = self._out.get(src, {})
            for dst in succs:
                yield src, dst, records.get(dst)

    @property
    def inputs(self) -> List[str]:
        """Operations with no predecessor (the input interface)."""
        return [n for n, preds in self._preds.items() if not preds]

    @property
    def outputs(self) -> List[str]:
        """Operations with no successor (the output interface)."""
        return [n for n, succs in self._succs.items() if not succs]

    def topological_order(self) -> List[str]:
        """A deterministic topological order of the operation names.

        Ties are broken lexicographically so that all runs of the
        scheduler are reproducible: Kahn's algorithm, taking the
        smallest ready name first.
        """
        indegree = {name: len(preds) for name, preds in self._preds.items()}
        ready = [name for name, count in indegree.items() if not count]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for succ in self._succs[name]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    heapq.heappush(ready, succ)
        if not order or len(order) < len(self._operations):
            self.check()  # raises: an empty graph, or a cycle
        return order

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of ``name``."""
        return self._reach(name, self._preds)

    def descendants(self, name: str) -> Set[str]:
        """All transitive successors of ``name``."""
        return self._reach(name, self._succs)

    def _reach(self, name: str, table: Dict[str, Tuple[str, ...]]) -> Set[str]:
        """The names reachable from ``name`` in ``table``, without it."""
        try:
            frontier = list(table[name])
        except KeyError:
            raise AlgorithmGraphError(f"unknown operation {name!r}") from None
        seen = set(frontier)
        while frontier:
            for nxt in table[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        seen.discard(name)
        return seen

    def as_networkx(self) -> "networkx.DiGraph":
        """A networkx copy of the graph, each edge carrying its record
        as ``dependency``.  An adapter for tests and users: it imports
        networkx when called, and nothing in the package calls it."""
        import networkx

        graph = networkx.DiGraph()
        graph.add_nodes_from(self._operations)
        for dep in self.dependencies:
            graph.add_edge(dep.src, dep.dst, dependency=dep)
        return graph

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def find_cycle(self) -> Optional[List[Tuple[str, str]]]:
        """The arcs of the first cycle a depth-first search meets, or
        ``None`` when the graph is acyclic.

        The search starts from each operation in insertion order and
        follows each one's dependencies in insertion order, so the
        cycle reported is deterministic.
        """
        done: Set[str] = set()
        for start in self._operations:
            if start in done:
                continue
            path = [start]
            on_path = {start}
            stack = [iter(self._out[start])]
            while stack:
                node = next(stack[-1], None)
                if node is None:
                    stack.pop()
                    finished = path.pop()
                    on_path.discard(finished)
                    done.add(finished)
                elif node in on_path:
                    cycle = path[path.index(node):] + [node]
                    return list(zip(cycle, cycle[1:]))
                elif node not in done:
                    path.append(node)
                    on_path.add(node)
                    stack.append(iter(self._out[node]))
        return None

    def check(self) -> None:
        """Validate structural invariants; raise on violation.

        * the dependency graph must be acyclic (the intra-iteration
          data-flow of the AAA model is a DAG; the inter-iteration
          feedback of mems is implicit in their initial value);
        * the graph must contain at least one operation.
        """
        if not self._operations:
            raise AlgorithmGraphError("algorithm graph is empty")
        cycle = self.find_cycle()
        if cycle:
            arcs = ", ".join(f"{u}->{v}" for u, v in cycle)
            raise AlgorithmGraphError(f"algorithm graph has a cycle: {arcs}")

    def is_valid(self) -> bool:
        """True when :meth:`check` passes."""
        try:
            self.check()
        except AlgorithmGraphError:
            return False
        return True

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def longest_path_length(self, weight: Dict[str, float]) -> float:
        """Length of the longest path using per-operation ``weight``.

        ``weight`` maps operation name to a non-negative duration; edge
        costs are not counted (communication estimates are handled by
        the schedule-pressure pre-pass, see :mod:`repro.core.pressure`).
        """
        best: Dict[str, float] = {}
        for node in self.topological_order():
            preds = self._preds[node]
            best[node] = weight[node] + (max(best[p] for p in preds) if preds else 0.0)
        return max(best.values())

    def copy(self, name: Optional[str] = None) -> "AlgorithmGraph":
        """Deep copy of this graph (operations are immutable)."""
        clone = AlgorithmGraph(name or self.name)
        for op in self._operations.values():
            clone.add_operation(op)
        for dep in self.dependencies:
            clone.add_dependency(dep.src, dep.dst, dep.label)
        return clone

    def __repr__(self) -> str:
        count = sum(len(out) for out in self._out.values())
        return (
            f"AlgorithmGraph({self.name!r}, operations={len(self)}, "
            f"dependencies={count})"
        )


def _insert_sorted(names: Tuple[str, ...], name: str) -> Tuple[str, ...]:
    """``names`` (sorted) with ``name`` inserted in place."""
    at = bisect_left(names, name)
    return names[:at] + (name,) + names[at:]


def chain(names: Sequence[str], kind: OperationKind = OperationKind.COMP) -> AlgorithmGraph:
    """Build a simple chain graph ``names[0] -> names[1] -> ...``.

    Convenience used by tests and examples.
    """
    graph = AlgorithmGraph("chain")
    for name in names:
        graph.add_operation(Operation(name, kind))
    for src, dst in zip(names, names[1:]):
        graph.add_dependency(src, dst)
    return graph
