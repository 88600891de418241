"""The causal event graph of one simulated iteration.

Nodes are the trace records themselves — replica executions, frame
transmissions, and watchdog detections — and edges are the
happens-before relations the executive actually enforced:

``data-local``
    A predecessor's replica completed on the same processor, so the
    consumer read its value from local memory.
``data-frame``
    A delivered frame put the predecessor's value on the consumer's
    processor.
``production``
    A sender's own replica produced the value it then transmitted.
``relay``
    A multi-hop/takeover sender obtained the value from an inbound
    frame rather than a local replica.
``proc-occupancy``
    Consecutive executions on one computation unit: the later one
    could not start before the earlier one released the processor.
``link-occupancy``
    Consecutive frames on one link: transmissions serialize.
``ladder``
    Consecutive rung firings of one watcher's timeout ladder.
``timeout-trigger``
    A ladder exhaustion released a takeover frame.

Every edge points forward in time (source ends no later than the
destination starts, within tolerance), so the graph is acyclic by
construction; :meth:`CausalGraph.topological_order` verifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...core.schedule import Schedule
from ...sim.trace import (
    DetectionRecord,
    ExecutionRecord,
    FrameRecord,
    IterationTrace,
)

__all__ = ["CausalNode", "CausalEdge", "CausalGraph", "build_causal_graph"]

DependencyKey = Tuple[str, str]

#: Temporal tolerance for "ends no later than it starts" and "acted at
#: its rung's deadline": simulated dates are float sums of durations,
#: and a watchdog acts DEADLINE_SLACK (1e-9) after its deadline, so the
#: tolerance sits well above both and far below any duration.
TOLERANCE = 1e-6


@dataclass(frozen=True)
class CausalNode:
    """One event of the trace, with its interval on the timeline."""

    id: str
    kind: str            #: "execution" | "frame" | "detection"
    start: float
    end: float
    label: str
    op: str = ""
    processor: str = ""  #: executing processor / sender / watcher
    resource: str = ""   #: the processor or link the event occupied
    dependency: Optional[DependencyKey] = None
    completed: bool = True   #: executions completed / frames delivered
    takeover: bool = False
    suspect: str = ""        #: detections: the declared-dead candidate

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CausalEdge:
    """A happens-before relation between two nodes."""

    src: str
    dst: str
    kind: str


@dataclass
class CausalGraph:
    """Nodes + edges with adjacency and trace-level lookups."""

    nodes: Dict[str, CausalNode] = field(default_factory=dict)
    edges: List[CausalEdge] = field(default_factory=list)
    _out: Dict[str, List[CausalEdge]] = field(default_factory=dict)
    _in: Dict[str, List[CausalEdge]] = field(default_factory=dict)

    def add_node(self, node: CausalNode) -> CausalNode:
        self.nodes[node.id] = node
        self._out.setdefault(node.id, [])
        self._in.setdefault(node.id, [])
        return node

    def add_edge(self, src: str, dst: str, kind: str) -> None:
        edge = CausalEdge(src, dst, kind)
        self.edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)

    def out_edges(self, node_id: str) -> List[CausalEdge]:
        return self._out.get(node_id, [])

    def in_edges(self, node_id: str) -> List[CausalEdge]:
        return self._in.get(node_id, [])

    def in_edges_of_kind(self, node_id: str, *kinds: str) -> List[CausalEdge]:
        return [e for e in self.in_edges(node_id) if e.kind in kinds]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        indegree = {nid: len(self._in.get(nid, ())) for nid in self.nodes}
        ready = sorted(nid for nid, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for edge in self._out.get(nid, ()):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid, d in indegree.items() if d > 0)
            raise ValueError(f"causal graph has a cycle through {stuck[:6]}")
        return order

    def descendants(
        self, node_id: str, kinds: Optional[Tuple[str, ...]] = None
    ) -> List[str]:
        """Nodes causally downstream of ``node_id`` (excl. itself).

        ``kinds`` restricts the edges followed — e.g. the value-flow
        cone uses the data/production/trigger kinds only, leaving out
        resource occupancy."""
        seen = set()
        stack = [node_id]
        while stack:
            current = stack.pop()
            for edge in self._out.get(current, ()):
                if kinds is not None and edge.kind not in kinds:
                    continue
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return sorted(seen)

    # ------------------------------------------------------------------
    # Per-node local slack
    # ------------------------------------------------------------------
    def slack(self, makespan: float) -> Dict[str, float]:
        """How far each event could slip without displacing a successor.

        Terminal nodes are slack against the makespan itself.  Values
        are clamped at zero (edges are tight up to float tolerance).
        """
        result: Dict[str, float] = {}
        for nid, node in self.nodes.items():
            succs = self._out.get(nid, ())
            if succs:
                room = min(self.nodes[e.dst].start - node.end for e in succs)
            else:
                room = makespan - node.end
            result[nid] = max(0.0, room)
        return result

    # ------------------------------------------------------------------
    # Lookups used by the critical-path walk and the differ
    # ------------------------------------------------------------------
    def execution_node(self, op: str, proc: str) -> Optional[CausalNode]:
        return self.nodes.get(f"exec:{op}@{proc}")

    def frame_nodes(self) -> List[CausalNode]:
        return [n for n in self.nodes.values() if n.kind == "frame"]

    def sinks(self) -> List[CausalNode]:
        """Completed activity, latest end first (ties: executions first,
        then by id — deterministic)."""
        done = [
            n for n in self.nodes.values()
            if n.kind in ("execution", "frame") and n.completed
        ]
        return sorted(
            done, key=lambda n: (-n.end, n.kind != "execution", n.id)
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _execution_id(record: ExecutionRecord) -> str:
    return f"exec:{record.op}@{record.processor}"


def _frame_label(frame: FrameRecord) -> str:
    flags = []
    if frame.takeover:
        flags.append("takeover")
    if not frame.delivered:
        flags.append("LOST")
    suffix = f" ({', '.join(flags)})" if flags else ""
    return (
        f"frame {frame.dependency[0]}->{frame.dependency[1]} "
        f"{frame.sender}=>{','.join(sorted(frame.destinations))} "
        f"on {frame.link} [{frame.start:g}, {frame.end:g}]{suffix}"
    )


def build_causal_graph(
    trace: IterationTrace, schedule: Schedule
) -> CausalGraph:
    """Compile ``trace`` into its causal event graph.

    The schedule supplies the algorithm graph (which data edges exist)
    and the timeout table; everything temporal comes from the trace.
    """
    graph = CausalGraph()
    algorithm = schedule.problem.algorithm

    # --- nodes -------------------------------------------------------
    exec_nodes: Dict[Tuple[str, str], CausalNode] = {}
    for record in trace.executions:
        status = "" if record.completed else " (aborted)"
        node = graph.add_node(CausalNode(
            id=_execution_id(record),
            kind="execution",
            start=record.start,
            end=record.end,
            label=(
                f"exec {record.op}@{record.processor} "
                f"[{record.start:g}, {record.end:g}]{status}"
            ),
            op=record.op,
            processor=record.processor,
            resource=record.processor,
            completed=record.completed,
        ))
        exec_nodes[(record.op, record.processor)] = node

    frame_nodes: List[Tuple[FrameRecord, CausalNode]] = []
    used_ids: Dict[str, int] = {}
    for frame in trace.frames:
        base = (
            f"frame:{frame.dependency[0]}->{frame.dependency[1]}"
            f":{frame.sender}:{frame.link}"
        )
        serial = used_ids.get(base, 0)
        used_ids[base] = serial + 1
        node = graph.add_node(CausalNode(
            id=base if serial == 0 else f"{base}#{serial}",
            kind="frame",
            start=frame.start,
            end=frame.end,
            label=_frame_label(frame),
            op=frame.dependency[0],
            processor=frame.sender,
            resource=frame.link,
            dependency=frame.dependency,
            completed=frame.delivered,
            takeover=frame.takeover,
        ))
        frame_nodes.append((frame, node))

    detection_nodes: List[Tuple[DetectionRecord, CausalNode]] = []
    for detection in trace.detections:
        node = graph.add_node(CausalNode(
            id=(
                f"detect:{detection.watcher}!{detection.suspect}"
                f":{detection.op}@{detection.time:.9g}"
            ),
            kind="detection",
            start=detection.time,
            end=detection.time,
            label=(
                f"detection: {detection.watcher} declares "
                f"{detection.suspect} faulty for {detection.op} "
                f"at {detection.time:g}"
            ),
            op=detection.op,
            processor=detection.watcher,
            suspect=detection.suspect,
        ))
        detection_nodes.append((detection, node))

    # --- data and production edges -----------------------------------
    def _providers(src_op: str, proc: str, before: float):
        """(node, edge-kind) pairs that put ``src_op``'s value on
        ``proc`` no later than ``before``."""
        found = []
        local = exec_nodes.get((src_op, proc))
        if local is not None and local.completed and local.end <= before + TOLERANCE:
            found.append((local, "local"))
        for frame, node in frame_nodes:
            if (
                frame.delivered
                and frame.dependency[0] == src_op
                and proc in frame.destinations
                and frame.end <= before + TOLERANCE
            ):
                found.append((node, "frame"))
        return found

    scheduled_ops = set(schedule.operations)
    for (op, proc), node in exec_nodes.items():
        if op not in scheduled_ops:
            continue
        for pred in algorithm.predecessors(op):
            for provider, how in _providers(pred, proc, node.start):
                graph.add_edge(
                    provider.id,
                    node.id,
                    "data-local" if how == "local" else "data-frame",
                )

    for frame, node in frame_nodes:
        for provider, how in _providers(
            frame.dependency[0], frame.sender, frame.start
        ):
            graph.add_edge(
                provider.id,
                node.id,
                "production" if how == "local" else "relay",
            )

    # --- resource-occupancy edges ------------------------------------
    by_proc: Dict[str, List[CausalNode]] = {}
    for node in exec_nodes.values():
        by_proc.setdefault(node.processor, []).append(node)
    for nodes in by_proc.values():
        nodes.sort(key=lambda n: (n.start, n.end, n.id))
        for earlier, later in zip(nodes, nodes[1:]):
            graph.add_edge(earlier.id, later.id, "proc-occupancy")

    by_link: Dict[str, List[CausalNode]] = {}
    for _frame, node in frame_nodes:
        by_link.setdefault(node.resource, []).append(node)
    for nodes in by_link.values():
        nodes.sort(key=lambda n: (n.start, n.end, n.id))
        for earlier, later in zip(nodes, nodes[1:]):
            graph.add_edge(earlier.id, later.id, "link-occupancy")

    # --- watchdog edges ----------------------------------------------
    ladders: Dict[Tuple[str, str], List[CausalNode]] = {}
    for detection, node in detection_nodes:
        ladders.setdefault((detection.watcher, detection.op), []).append(node)
    for rungs in ladders.values():
        rungs.sort(key=lambda n: (n.end, n.id))
        for earlier, later in zip(rungs, rungs[1:]):
            graph.add_edge(earlier.id, later.id, "ladder")

    for frame, node in frame_nodes:
        if not frame.takeover:
            continue
        rungs = ladders.get((frame.sender, frame.dependency[0]), [])
        released = [r for r in rungs if r.end <= frame.start + TOLERANCE]
        if released:
            # The *last* rung to fire is the one that exhausted the
            # ladder and released this takeover send.
            graph.add_edge(released[-1].id, node.id, "timeout-trigger")

    return graph
