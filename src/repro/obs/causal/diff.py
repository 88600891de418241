"""Nominal-vs-fault trace diffing: where an execution first went wrong.

Aligns a faulty :class:`IterationTrace` against the nominal trace of
the *same schedule* (both runs are deterministic, so alignment is by
identity keys, not heuristics):

* executions pair by ``(op, processor)``;
* frames group by ``(dependency, sender, link)`` and pair in start
  order within the group;
* detections exist only under faults and always diff as ``extra``.

Two divergences matter and both are reported:

* the **first divergence** — the earliest event that differs at all.
  Under fault tolerance this is usually benign: an aborted execution
  or a missing frame that replicas and takeover frames compensate.
* the **first fatal divergence** — the earliest *unhealed* breakdown:
  a value that nominal put on some surviving processor, that *was*
  produced somewhere in the faulty run, but whose every delivery
  attempt failed.  The terminal attempt (typically a frame lost
  mid-transmission while the next watcher stood down on it) is the
  event named, together with the ladder forensics and the causal
  frontier of nominal events it poisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.trace import FrameRecord, IterationTrace
from ...sim.verify import _availability as availability_map
from .graph import TOLERANCE, build_causal_graph

__all__ = [
    "DiffEvent",
    "LadderState",
    "PoisonedAvailability",
    "FatalDivergence",
    "TraceDiff",
    "diff_traces",
    "ladder_states",
]

DependencyKey = Tuple[str, str]

#: Two deterministic runs produce bit-identical dates; anything beyond
#: float noise is a genuine shift.
TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DiffEvent:
    """One difference between the aligned traces."""

    kind: str      #: "aborted" | "missing" | "extra" | "lost" | "shifted" | "changed"
    category: str  #: "execution" | "frame" | "detection"
    key: str       #: human-stable alignment key
    time: float    #: ordering date (earliest side)
    nominal: str = ""
    faulty: str = ""
    detail: str = ""

    def describe(self) -> str:
        sides = []
        if self.nominal:
            sides.append(f"nominal: {self.nominal}")
        if self.faulty:
            sides.append(f"faulty: {self.faulty}")
        extra = f" — {self.detail}" if self.detail else ""
        return (
            f"[{self.kind}] {self.category} {self.key} at t={self.time:g} "
            f"({'; '.join(sides)}){extra}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "category": self.category,
            "key": self.key,
            "time": self.time,
            "nominal": self.nominal,
            "faulty": self.faulty,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class LadderState:
    """One timeout-table rung's fate in the faulty run."""

    watcher: str
    candidate: str
    rank: int
    deadline: float
    state: str   #: fired | skipped | watcher-dead | never-fired
    detail: str = ""

    def describe(self) -> str:
        suffix = f" — {self.detail}" if self.detail else ""
        return (
            f"watcher {self.watcher} on candidate {self.candidate} "
            f"(rank {self.rank}, deadline {self.deadline:g}): "
            f"{self.state}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "watcher": self.watcher,
            "candidate": self.candidate,
            "rank": self.rank,
            "deadline": self.deadline,
            "state": self.state,
            "detail": self.detail,
        }


@dataclass
class PoisonedAvailability:
    """A value nominal delivered that the faulty run never restored."""

    op: str
    processor: str
    nominal_time: float
    produced: bool            #: the value existed somewhere in the faulty run
    attempts: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "processor": self.processor,
            "nominal_time": self.nominal_time,
            "produced": self.produced,
            "attempts": list(self.attempts),
        }


@dataclass
class FatalDivergence:
    """The earliest unhealed breakdown and its blast radius."""

    op: str
    processor: str           #: the starved destination
    nominal_time: float
    event: DiffEvent
    ladder: List[LadderState] = field(default_factory=list)
    frontier: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "processor": self.processor,
            "nominal_time": self.nominal_time,
            "event": self.event.to_dict(),
            "ladder": [rung.to_dict() for rung in self.ladder],
            "frontier": list(self.frontier),
        }


@dataclass
class TraceDiff:
    """The aligned comparison of one faulty run against nominal."""

    scenario: str
    identical: bool
    compared: int
    unchanged: int
    events: List[DiffEvent] = field(default_factory=list)
    poisoned: List[PoisonedAvailability] = field(default_factory=list)
    fatal: Optional[FatalDivergence] = None

    @property
    def first_divergence(self) -> Optional[DiffEvent]:
        return self.events[0] if self.events else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "identical": self.identical,
            "compared": self.compared,
            "unchanged": self.unchanged,
            "events": [event.to_dict() for event in self.events],
            "first_divergence": (
                self.first_divergence.to_dict()
                if self.first_divergence else None
            ),
            "poisoned": [p.to_dict() for p in self.poisoned],
            "fatal": self.fatal.to_dict() if self.fatal else None,
        }

    def render(self) -> str:
        lines = [f"trace diff: nominal vs {self.scenario}"]
        if self.identical:
            lines.append("  traces are identical")
            return "\n".join(lines)
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        summary = ", ".join(
            f"{n} {kind}" for kind, n in sorted(counts.items())
        )
        lines.append(
            f"  {self.compared} aligned events: {self.unchanged} "
            f"unchanged, {summary}"
        )
        first = self.first_divergence
        if first is not None:
            lines.append(f"  first divergence: {first.describe()}")
        for poisoned in self.poisoned:
            origin = (
                "produced but never delivered"
                if poisoned.produced else "never produced by any survivor"
            )
            lines.append(
                f"  poisoned availability: {poisoned.op} never reached "
                f"{poisoned.processor} (nominal: t="
                f"{poisoned.nominal_time:g}; {origin})"
            )
            for attempt in poisoned.attempts:
                lines.append(f"    attempt: {attempt}")
        if self.fatal is not None:
            lines.append(
                f"  first fatal divergence: {self.fatal.event.describe()}"
            )
            for rung in self.fatal.ladder:
                lines.append(f"    ladder: {rung.describe()}")
            if self.fatal.frontier:
                shown = self.fatal.frontier[:10]
                more = len(self.fatal.frontier) - len(shown)
                lines.append(
                    "    causal frontier poisoned "
                    f"({len(self.fatal.frontier)} nominal event(s) never "
                    "reproduced):"
                )
                for label in shown:
                    lines.append(f"      - {label}")
                if more > 0:
                    lines.append(f"      ... and {more} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Alignment
# ----------------------------------------------------------------------
def _frame_key(frame: FrameRecord) -> Tuple[DependencyKey, str, str]:
    return (frame.dependency, frame.sender, frame.link)


def _frame_desc(frame: FrameRecord) -> str:
    return str(frame)


def _shifted(a: float, b: float) -> bool:
    return abs(a - b) > TIME_TOLERANCE


def _align_events(
    nominal: IterationTrace, faulty: IterationTrace
) -> Tuple[List[DiffEvent], int, int]:
    events: List[DiffEvent] = []
    compared = 0
    unchanged = 0

    # --- executions --------------------------------------------------
    nom_exec = {(r.op, r.processor): r for r in nominal.executions}
    fau_exec = {(r.op, r.processor): r for r in faulty.executions}
    for key in sorted(set(nom_exec) | set(fau_exec)):
        compared += 1
        op, proc = key
        label = f"{op}@{proc}"
        n, f = nom_exec.get(key), fau_exec.get(key)
        if n is None:
            events.append(DiffEvent(
                "extra", "execution", label, f.start, faulty=str(f),
            ))
        elif f is None:
            events.append(DiffEvent(
                "missing", "execution", label, n.start, nominal=str(n),
                detail="this replica never started in the faulty run",
            ))
        elif n.completed and not f.completed:
            events.append(DiffEvent(
                "aborted", "execution", label, f.start,
                nominal=str(n), faulty=str(f),
                detail="aborted by a crash",
            ))
        elif _shifted(n.start, f.start) or _shifted(n.end, f.end):
            events.append(DiffEvent(
                "shifted", "execution", label, min(n.start, f.start),
                nominal=str(n), faulty=str(f),
                detail=f"start moved by {f.start - n.start:+g}",
            ))
        else:
            unchanged += 1

    # --- frames ------------------------------------------------------
    nom_frames: Dict[Tuple, List[FrameRecord]] = {}
    fau_frames: Dict[Tuple, List[FrameRecord]] = {}
    for frame in nominal.frames:
        nom_frames.setdefault(_frame_key(frame), []).append(frame)
    for frame in faulty.frames:
        fau_frames.setdefault(_frame_key(frame), []).append(frame)
    for key in sorted(set(nom_frames) | set(fau_frames)):
        dep, sender, link = key
        label = f"{dep[0]}->{dep[1]} {sender} on {link}"
        n_list = sorted(nom_frames.get(key, ()), key=lambda fr: fr.start)
        f_list = sorted(fau_frames.get(key, ()), key=lambda fr: fr.start)
        for index in range(max(len(n_list), len(f_list))):
            compared += 1
            n = n_list[index] if index < len(n_list) else None
            f = f_list[index] if index < len(f_list) else None
            if n is None:
                kind = "extra"
                detail = "takeover retransmission" if f.takeover else ""
                if not f.delivered:
                    kind = "lost"
                    detail = (detail + "; " if detail else "") + \
                        "lost mid-transmission"
                events.append(DiffEvent(
                    kind, "frame", label, f.start, faulty=str(f),
                    detail=detail,
                ))
            elif f is None:
                events.append(DiffEvent(
                    "missing", "frame", label, n.start, nominal=str(n),
                    detail="never dispatched in the faulty run",
                ))
            elif n.delivered and not f.delivered:
                events.append(DiffEvent(
                    "lost", "frame", label, f.start,
                    nominal=str(n), faulty=str(f),
                    detail="delivered nominally, lost mid-transmission here",
                ))
            elif set(n.destinations) != set(f.destinations):
                events.append(DiffEvent(
                    "changed", "frame", label, min(n.start, f.start),
                    nominal=str(n), faulty=str(f),
                    detail="destination set changed",
                ))
            elif _shifted(n.start, f.start) or _shifted(n.end, f.end):
                events.append(DiffEvent(
                    "shifted", "frame", label, min(n.start, f.start),
                    nominal=str(n), faulty=str(f),
                    detail=f"start moved by {f.start - n.start:+g}",
                ))
            else:
                unchanged += 1

    # --- detections --------------------------------------------------
    nom_det = {(d.op, d.watcher, d.suspect): d for d in nominal.detections}
    fau_det = {(d.op, d.watcher, d.suspect): d for d in faulty.detections}
    for key in sorted(set(nom_det) | set(fau_det)):
        compared += 1
        op, watcher, suspect = key
        label = f"{watcher}!{suspect}:{op}"
        n, f = nom_det.get(key), fau_det.get(key)
        if n is None:
            events.append(DiffEvent(
                "extra", "detection", label, f.time, faulty=str(f),
            ))
        elif f is None:
            events.append(DiffEvent(
                "missing", "detection", label, n.time, nominal=str(n),
            ))
        elif _shifted(n.time, f.time):
            events.append(DiffEvent(
                "shifted", "detection", label, min(n.time, f.time),
                nominal=str(n), faulty=str(f),
            ))
        else:
            unchanged += 1

    events.sort(key=lambda e: (e.time, e.category, e.key, e.kind))
    return events, compared, unchanged


# ----------------------------------------------------------------------
# Stand-down forensics (shared with the campaign diagnoser)
# ----------------------------------------------------------------------
def ladder_states(
    dep: DependencyKey,
    faulty: IterationTrace,
    schedule: Schedule,
    scenario: FailureScenario,
) -> List[LadderState]:
    """What became of every timeout-table rung guarding ``dep``."""
    entries = sorted(
        (e for e in schedule.timeouts if e.dependency == dep),
        key=lambda e: (e.watcher, e.rank),
    )
    dispatches = [f for f in faulty.frames if f.dependency == dep]
    states: List[LadderState] = []
    for entry in entries:
        declared = [
            d for d in faulty.detections
            if d.watcher == entry.watcher
            and d.suspect == entry.candidate
            and d.time <= entry.deadline + TOLERANCE
        ]
        fired = next((d for d in declared if d.op == entry.op), None)
        if fired is not None:
            state, detail = "fired", f"detected at {fired.time:g}"
        elif declared:
            # The watcher's fail flag was already set by an earlier
            # detection for another message — the executive skips the
            # wait and acts at the static point (Figure 18(b) style).
            earliest = min(declared, key=lambda d: d.time)
            state = "skipped"
            detail = (
                f"candidate already declared dead at {earliest.time:g} "
                f"(for {earliest.op!r})"
            )
        elif entry.candidate in scenario.known_failed:
            state, detail = "skipped", "candidate known dead at start"
        elif not scenario.alive_at(entry.watcher, entry.deadline):
            state, detail = "watcher-dead", (
                f"{entry.watcher} itself dead by the deadline"
            )
        else:
            state = "never-fired"
            stand_down = next(
                (f for f in dispatches if f.start <= entry.deadline + TOLERANCE),
                None,
            )
            if stand_down is not None and not stand_down.delivered:
                detail = (
                    f"stood down on the frame dispatched at "
                    f"{stand_down.start:g}, which was LOST — the ladder "
                    "never re-fired"
                )
            elif stand_down is not None:
                detail = (
                    f"stood down on the frame dispatched at "
                    f"{stand_down.start:g} (delivered)"
                )
            else:
                detail = "no detection and no dispatch before the deadline"
        states.append(LadderState(
            watcher=entry.watcher,
            candidate=entry.candidate,
            rank=entry.rank,
            deadline=entry.deadline,
            state=state,
            detail=detail,
        ))
    return states


# ----------------------------------------------------------------------
# The differ
# ----------------------------------------------------------------------
def diff_traces(
    nominal: IterationTrace,
    faulty: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
) -> TraceDiff:
    """Align ``faulty`` against ``nominal`` and locate the breakdown."""
    scenario = scenario or FailureScenario.none()
    events, compared, unchanged = _align_events(nominal, faulty)
    diff = TraceDiff(
        scenario=faulty.scenario_name or str(scenario),
        identical=not events,
        compared=compared,
        unchanged=unchanged,
        events=events,
    )
    if diff.identical:
        return diff

    nom_avail = availability_map(nominal)
    fau_avail = availability_map(faulty)
    produced_ops = {
        r.op for r in faulty.executions if r.completed
    }
    horizon = max(nominal.makespan, faulty.makespan, schedule.makespan)
    missing = sorted(
        (when, op, proc)
        for (op, proc), when in nom_avail.items()
        if (op, proc) not in fau_avail
        and scenario.alive_at(proc, horizon)
    )
    rooted: List[Tuple[PoisonedAvailability, Optional[FrameRecord]]] = []
    for when, op, proc in missing:
        poisoned = PoisonedAvailability(
            op=op, processor=proc, nominal_time=when,
            produced=op in produced_ops,
        )
        attempts = sorted(
            (
                f for f in faulty.frames
                if f.dependency[0] == op and proc in f.destinations
            ),
            key=lambda f: f.start,
        )
        poisoned.attempts = [_frame_desc(f) for f in attempts]
        diff.poisoned.append(poisoned)
        if poisoned.produced:
            rooted.append((poisoned, attempts[-1] if attempts else None))

    if rooted:
        poisoned, terminal = rooted[0]
        diff.fatal = _fatal_divergence(
            poisoned, terminal, nominal, faulty, schedule, scenario
        )
    return diff


def _fatal_divergence(
    poisoned: PoisonedAvailability,
    terminal: Optional[FrameRecord],
    nominal: IterationTrace,
    faulty: IterationTrace,
    schedule: Schedule,
    scenario: FailureScenario,
) -> FatalDivergence:
    if terminal is not None:
        dep = terminal.dependency
        flags = "takeover " if terminal.takeover else ""
        event = DiffEvent(
            kind="lost",
            category="frame",
            key=f"{dep[0]}->{dep[1]} {terminal.sender} on {terminal.link}",
            time=terminal.start,
            faulty=str(terminal),
            detail=(
                f"the last delivery attempt for {poisoned.op}@"
                f"{poisoned.processor}: the {flags}frame was lost "
                "mid-transmission and no watcher re-fired"
            ),
        )
    else:
        dep = _consumer_dependency(poisoned, schedule)
        event = DiffEvent(
            kind="missing",
            category="frame",
            key=f"{poisoned.op}->* => {poisoned.processor}",
            time=poisoned.nominal_time,
            nominal=(
                f"{poisoned.op} reached {poisoned.processor} at "
                f"t={poisoned.nominal_time:g}"
            ),
            detail=(
                "the value existed on surviving processors but no frame "
                f"was ever dispatched towards {poisoned.processor}"
            ),
        )
    ladder = (
        ladder_states(dep, faulty, schedule, scenario)
        if dep is not None else []
    )
    return FatalDivergence(
        op=poisoned.op,
        processor=poisoned.processor,
        nominal_time=poisoned.nominal_time,
        event=event,
        ladder=ladder,
        frontier=_poisoned_frontier(poisoned, nominal, faulty, schedule),
    )


def _consumer_dependency(
    poisoned: PoisonedAvailability, schedule: Schedule
) -> Optional[DependencyKey]:
    """The (src, dst) dependency whose delivery to the poisoned
    processor broke: the consumer of ``op`` scheduled there."""
    algorithm = schedule.problem.algorithm
    for successor in sorted(algorithm.successors(poisoned.op)):
        if schedule.replica_on(successor, poisoned.processor) is not None:
            return (poisoned.op, successor)
    return None


def _poisoned_frontier(
    poisoned: PoisonedAvailability,
    nominal: IterationTrace,
    faulty: IterationTrace,
    schedule: Schedule,
) -> List[str]:
    """Nominal events downstream of the broken delivery that the faulty
    run never reproduced."""
    graph = build_causal_graph(nominal, schedule)
    roots = [
        node.id for node in graph.frame_nodes()
        if node.dependency is not None
        and node.dependency[0] == poisoned.op
        and poisoned.processor in _frame_destinations(nominal, node.id, graph)
    ]
    if not roots:
        root = graph.execution_node(poisoned.op, poisoned.processor)
        roots = [root.id] if root is not None else []
    # Follow only value-flow edges: a frame that merely shared the bus
    # with the lost one is delayed, not poisoned.
    value_flow = (
        "data-local", "data-frame", "production", "relay",
        "ladder", "timeout-trigger",
    )
    downstream: set = set()
    for root in roots:
        downstream.update(graph.descendants(root, kinds=value_flow))

    fau_completed = {
        (r.op, r.processor) for r in faulty.executions if r.completed
    }
    fau_frame_keys = {
        (f.dependency, f.sender, f.link)
        for f in faulty.frames if f.delivered
    }
    frontier: List[str] = []
    for node_id in sorted(
        downstream, key=lambda nid: (graph.nodes[nid].start, nid)
    ):
        node = graph.nodes[node_id]
        if node.kind == "execution":
            if (node.op, node.processor) not in fau_completed:
                frontier.append(node.label)
        elif node.kind == "frame":
            key = (node.dependency, node.processor, node.resource)
            if key not in fau_frame_keys:
                frontier.append(node.label)
    return frontier


def _frame_destinations(
    trace: IterationTrace, node_id: str, graph
) -> Tuple[str, ...]:
    node = graph.nodes[node_id]
    for frame in trace.frames:
        if (
            frame.dependency == node.dependency
            and frame.sender == node.processor
            and frame.link == node.resource
            and abs(frame.start - node.start) <= TIME_TOLERANCE
        ):
            return frame.destinations
    return ()
