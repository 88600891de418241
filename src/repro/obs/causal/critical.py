"""Critical-path attribution: the chain that set the makespan.

Starting from the latest completed activity, the walk recurses through
the binding cause of every start date — the latest input arrival, the
previous occupant of the processor or link, the watchdog deadline that
released a takeover, or the static release date of a planned frame —
and emits a contiguous partition of ``[0, makespan]`` into categorized
segments:

``compute``
    Time inside executions on the chain.
``comm``
    Time inside frame transmissions on the chain.
``queue-block``
    The event was ready but its processor/link was still busy.
``timeout-wait``
    A watchdog ladder sat out its deadline before acting.
``release-wait``
    A planned frame held for its static release date.
``wait``
    Residual stall no recorded cause explains (should stay empty; kept
    so the partition is total even on surprising traces).

The segment lengths telescope: they sum exactly (to float tolerance)
to the trace makespan, which is the invariant the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.trace import IterationTrace
from .graph import TOLERANCE, CausalGraph, CausalNode

__all__ = [
    "PathSegment",
    "CriticalPath",
    "FaultCost",
    "attribute_critical_path",
    "attribute_fault_cost",
]

#: Categories, in reporting order.
CATEGORIES = (
    "compute", "comm", "timeout-wait", "queue-block", "release-wait", "wait",
)


@dataclass(frozen=True)
class PathSegment:
    """One contiguous slice of the critical chain's timeline."""

    start: float
    end: float
    category: str
    node: str = ""    #: node id (activity) or binder id (waits)
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "category": self.category,
            "node": self.node,
            "detail": self.detail,
        }


@dataclass
class CriticalPath:
    """The attributed chain, earliest segment first."""

    makespan: float
    sink: str
    segments: List[PathSegment] = field(default_factory=list)
    nodes: List[str] = field(default_factory=list)  #: chain ids, earliest first

    @property
    def breakdown(self) -> Dict[str, float]:
        """Per-category totals; always sums to the makespan."""
        totals = {category: 0.0 for category in CATEGORIES}
        for segment in self.segments:
            totals[segment.category] += segment.duration
        return totals

    @property
    def total(self) -> float:
        return sum(segment.duration for segment in self.segments)

    def to_dict(self) -> Dict[str, object]:
        return {
            "makespan": self.makespan,
            "sink": self.sink,
            "nodes": list(self.nodes),
            "segments": [segment.to_dict() for segment in self.segments],
            "breakdown": self.breakdown,
        }


# ----------------------------------------------------------------------
# The backward walk
# ----------------------------------------------------------------------
def _arrival_cause(
    graph: CausalGraph, node: CausalNode
) -> Tuple[Optional[CausalNode], float]:
    """The binding input of ``node``: the latest-arriving dependency.

    For executions, each predecessor op counts at its *earliest*
    provider (local copy or first delivered frame); the binding one is
    the predecessor whose earliest arrival is latest.  For frames, the
    binding input is the earliest possession of the payload, or the
    ladder rung that released a takeover — whichever is later.
    """
    if node.kind == "execution":
        per_input: Dict[str, Tuple[float, CausalNode]] = {}
        for edge in graph.in_edges_of_kind(node.id, "data-local", "data-frame"):
            provider = graph.nodes[edge.src]
            key = provider.op
            best = per_input.get(key)
            if best is None or provider.end < best[0]:
                per_input[key] = (provider.end, provider)
        if not per_input:
            return None, 0.0
        when, cause = max(per_input.values(), key=lambda item: (item[0], item[1].id))
        return cause, when

    # Frame: payload possession (earliest) vs. timeout trigger (latest).
    possession: Optional[Tuple[float, CausalNode]] = None
    for edge in graph.in_edges_of_kind(node.id, "production", "relay"):
        provider = graph.nodes[edge.src]
        if possession is None or provider.end < possession[0]:
            possession = (provider.end, provider)
    trigger: Optional[Tuple[float, CausalNode]] = None
    for edge in graph.in_edges_of_kind(node.id, "timeout-trigger"):
        rung = graph.nodes[edge.src]
        if trigger is None or rung.end > trigger[0]:
            trigger = (rung.end, rung)
    candidates = [c for c in (possession, trigger) if c is not None]
    if not candidates:
        return None, 0.0
    when, cause = max(candidates, key=lambda item: item[0])
    return cause, when


def _detection_base(
    graph: CausalGraph, node: CausalNode
) -> Optional[CausalNode]:
    """What the watchdog chain hands the walk below a rung firing:
    the previous rung of the same ladder, else the watcher's own
    production of the watched value (it has been sitting on the data
    since then)."""
    rungs = [
        graph.nodes[e.src] for e in graph.in_edges_of_kind(node.id, "ladder")
    ]
    if rungs:
        return max(rungs, key=lambda n: (n.end, n.id))
    production = graph.execution_node(node.op, node.processor)
    if (
        production is not None
        and production.completed
        and production.end <= node.end + TOLERANCE
    ):
        return production
    return None


def _occupant(graph: CausalGraph, node: CausalNode) -> Optional[CausalNode]:
    """The previous occupant of the node's processor or link."""
    kind = "proc-occupancy" if node.kind == "execution" else "link-occupancy"
    previous = [graph.nodes[e.src] for e in graph.in_edges_of_kind(node.id, kind)]
    if not previous:
        return None
    return max(previous, key=lambda n: (n.end, n.id))


def _planned_release(schedule: Schedule, node: CausalNode) -> Optional[float]:
    """Static release date of a planned (non-takeover) frame."""
    if node.takeover or node.dependency is None:
        return None
    return schedule.executive_plan.planned_release.get(
        (node.dependency, node.processor)
    )


def _ladder_release(
    schedule: Schedule, node: CausalNode
) -> Optional[Tuple[float, str]]:
    """Deadline + candidate of the last ladder rung a takeover frame's
    watcher waited out.

    A coalesced skip (the candidate was already declared dead for an
    earlier message, Figure 18(b)) dispatches at the rung's static
    point without firing a fresh detection — this is the binder the
    detection nodes cannot supply."""
    if not node.takeover or node.dependency is None:
        return None
    dep = node.dependency
    rungs = [
        rung
        for rung in schedule.executive_plan.ladders.get((dep[0], dep, node.processor), ())
        if rung.deadline <= node.start + TOLERANCE
    ]
    if not rungs:
        return None
    last = max(rungs, key=lambda rung: (rung.deadline, rung.rank))
    return last.deadline, last.candidate


def attribute_critical_path(
    graph: CausalGraph,
    trace: IterationTrace,
    schedule: Schedule,
) -> CriticalPath:
    """Walk back from the last completed activity to time zero."""
    sinks = graph.sinks()
    if not sinks:
        return CriticalPath(makespan=0.0, sink="")
    sink = sinks[0]
    path = CriticalPath(makespan=trace.makespan, sink=sink.id)
    segments: List[PathSegment] = []
    chain: List[str] = []

    current: Optional[CausalNode] = sink
    cursor = sink.end
    guard = 0
    while current is not None and cursor > TOLERANCE:
        guard += 1
        if guard > 4 * len(graph.nodes) + 8:  # pragma: no cover - safety net
            segments.append(PathSegment(0.0, cursor, "wait", detail="walk aborted"))
            break
        chain.append(current.id)

        if current.kind == "detection":
            base = _detection_base(graph, current)
            lower = base.end if base is not None else 0.0
            lower = min(lower, cursor)
            segments.append(PathSegment(
                lower, cursor, "timeout-wait", node=current.id,
                detail=(
                    f"{current.processor} waited out the ladder deadline "
                    f"for {current.op} (suspect {current.suspect})"
                ),
            ))
            cursor = lower
            current = base
            continue

        # Activity node: its own interval is compute/comm time.
        lower = min(current.start, cursor)
        segments.append(PathSegment(
            lower, cursor,
            "compute" if current.kind == "execution" else "comm",
            node=current.id, detail=current.label,
        ))
        cursor = lower
        if cursor <= TOLERANCE:
            break

        cause, ready = _arrival_cause(graph, current)
        ready = min(ready, cursor)
        if ready >= cursor - TOLERANCE:
            # An input arrival binds the start directly.
            current = cause
            cursor = ready if cause is not None else cursor
            if cause is None:
                segments.append(PathSegment(
                    0.0, cursor, "wait",
                    detail="start date has no recorded cause",
                ))
                break
            continue

        # The node was ready at ``ready`` but started at ``cursor``:
        # classify the stall by whichever reason reaches the start.
        binders: List[Tuple[float, PathSegment]] = []
        occupant = _occupant(graph, current)
        if occupant is not None:
            binders.append((occupant.end, PathSegment(
                ready, cursor, "queue-block", node=occupant.id,
                detail=(
                    f"blocked behind {occupant.label} on "
                    f"{current.resource}"
                ),
            )))
        release = _planned_release(schedule, current)
        if release is not None:
            binders.append((release, PathSegment(
                ready, cursor, "release-wait", node=current.id,
                detail=(
                    f"held for the static release date t={release:g} "
                    f"of the planned frame"
                ),
            )))
        ladder = _ladder_release(schedule, current)
        if ladder is not None:
            deadline, candidate = ladder
            binders.append((deadline, PathSegment(
                ready, cursor, "timeout-wait", node=current.id,
                detail=(
                    f"{current.processor} held the takeover to the "
                    f"ladder deadline t={deadline:g} (candidate "
                    f"{candidate} declared dead earlier)"
                ),
            )))
        binders = [b for b in binders if b[0] >= cursor - TOLERANCE]
        if binders:
            segments.append(max(binders, key=lambda b: b[0])[1])
        else:
            segments.append(PathSegment(
                ready, cursor, "wait", node=current.id,
                detail="stall with no recorded cause",
            ))
        cursor = ready
        current = cause
        if cause is None and cursor > TOLERANCE:
            segments.append(PathSegment(
                0.0, cursor, "wait", detail="no further recorded cause",
            ))
            break

    segments.reverse()
    chain.reverse()
    path.segments = [s for s in segments if s.duration > 0.0]
    path.nodes = chain
    return path


# ----------------------------------------------------------------------
# Fault-cost attribution
# ----------------------------------------------------------------------
@dataclass
class FaultCost:
    """How much end-to-end latency the crashes added vs. nominal."""

    nominal_makespan: float
    faulty_makespan: float
    #: timeout-wait on the critical chain, per declared-dead processor
    per_suspect: Dict[str, float] = field(default_factory=dict)
    #: takeover retransmission time on the chain, per suspect
    takeover_comm: Dict[str, float] = field(default_factory=dict)

    @property
    def delta(self) -> float:
        return self.faulty_makespan - self.nominal_makespan

    @property
    def attributed(self) -> float:
        return sum(self.per_suspect.values())

    @property
    def unattributed(self) -> float:
        """Displacement effects (queue reshuffles, replica re-elections)
        not directly chargeable to one deadline wait."""
        return self.delta - self.attributed

    def to_dict(self) -> Dict[str, object]:
        return {
            "nominal_makespan": self.nominal_makespan,
            "faulty_makespan": self.faulty_makespan,
            "delta": self.delta,
            "per_suspect": dict(self.per_suspect),
            "takeover_comm": dict(self.takeover_comm),
            "attributed": self.attributed,
            "unattributed": self.unattributed,
        }


def attribute_fault_cost(
    graph: CausalGraph,
    path: CriticalPath,
    nominal: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
) -> FaultCost:
    """Charge the chain's timeout waits to the crashes that caused them."""
    cost = FaultCost(
        nominal_makespan=nominal.makespan,
        faulty_makespan=path.makespan,
    )

    def _frame_suspects(node: CausalNode) -> List[str]:
        triggers = graph.in_edges_of_kind(node.id, "timeout-trigger")
        suspects = sorted({graph.nodes[e.src].suspect for e in triggers})
        if not suspects:
            ladder = _ladder_release(schedule, node)
            suspects = [ladder[1]] if ladder is not None else ["?"]
        return suspects

    for segment in path.segments:
        node = graph.nodes.get(segment.node)
        if node is None:
            continue
        if segment.category == "timeout-wait":
            if node.kind == "detection":
                suspects = [node.suspect or "?"]
            else:  # a coalesced-skip takeover held to its rung deadline
                suspects = _frame_suspects(node)
            for suspect in suspects:
                cost.per_suspect[suspect] = (
                    cost.per_suspect.get(suspect, 0.0)
                    + segment.duration / len(suspects)
                )
        elif segment.category == "comm" and node.takeover:
            suspects = _frame_suspects(node)
            for suspect in suspects:
                cost.takeover_comm[suspect] = (
                    cost.takeover_comm.get(suspect, 0.0)
                    + segment.duration / len(suspects)
                )
    return cost
