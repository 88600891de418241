"""The ``repro.obs.causal/1`` artifact: one analysis, one JSON file.

:func:`analyze_trace` bundles the causal graph summary, the critical
path with its per-category breakdown and per-node slack, the fault
cost against a nominal run, and (when a nominal trace is supplied) the
trace diff into a single :class:`CausalReport` that renders as text,
saves as a schema-stamped JSON artifact, and overlays onto the ASCII
Gantt chart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.trace import IterationTrace
from ..runtime import get_instrumentation
from .critical import (
    CATEGORIES,
    CriticalPath,
    FaultCost,
    attribute_critical_path,
    attribute_fault_cost,
)
from .diff import TraceDiff, diff_traces
from .graph import CausalGraph, build_causal_graph

__all__ = [
    "SCHEMA_ID",
    "CausalReport",
    "analyze_trace",
    "critical_overlay",
    "save_report",
    "load_report",
]

SCHEMA_ID = "repro.obs.causal/1"


@dataclass
class CausalReport:
    """Everything the causal analysis of one trace produced."""

    scenario: str
    method: str
    makespan: float
    response_time: float
    completed: bool
    graph: CausalGraph
    path: CriticalPath
    slack: Dict[str, float] = field(default_factory=dict)
    fault_cost: Optional[FaultCost] = None
    diff: Optional[TraceDiff] = None

    @property
    def breakdown(self) -> Dict[str, float]:
        return self.path.breakdown

    def to_dict(self) -> Dict[str, Any]:
        nodes_by_kind: Dict[str, int] = {}
        for node in self.graph.nodes.values():
            nodes_by_kind[node.kind] = nodes_by_kind.get(node.kind, 0) + 1
        return {
            "schema": SCHEMA_ID,
            "scenario": self.scenario,
            "method": self.method,
            "makespan": self.makespan,
            "response_time": (
                self.response_time
                if self.response_time != float("inf") else None
            ),
            "completed": self.completed,
            "graph": {
                "nodes": len(self.graph.nodes),
                "edges": len(self.graph.edges),
                "nodes_by_kind": nodes_by_kind,
            },
            "critical_path": self.path.to_dict(),
            "slack": dict(sorted(self.slack.items())),
            "fault_cost": (
                self.fault_cost.to_dict() if self.fault_cost else None
            ),
            "diff": self.diff.to_dict() if self.diff else None,
        }

    # ------------------------------------------------------------------
    # Text rendering
    # ------------------------------------------------------------------
    def render(self, full: bool = False) -> str:
        status = (
            "completed" if self.completed
            else "INCOMPLETE (some outputs never produced)"
        )
        lines = [
            f"causal analysis — {self.scenario} ({self.method})",
            f"  {status}; makespan {self.makespan:g}"
            + (
                f", response {self.response_time:g}"
                if self.response_time != float("inf") else ""
            ),
            f"  graph: {len(self.graph.nodes)} events, "
            f"{len(self.graph.edges)} happens-before edges",
        ]
        lines.append("  critical path (earliest first):")
        for segment in self.path.segments:
            where = ""
            node = self.graph.nodes.get(segment.node)
            if segment.category in ("compute", "comm") and node is not None:
                where = f" {node.label}"
            elif segment.detail:
                where = f" {segment.detail}"
            lines.append(
                f"    [{segment.start:8.3f}, {segment.end:8.3f}] "
                f"{segment.category:<12s}{where}"
            )
        lines.append("  latency breakdown:")
        for category in CATEGORIES:
            value = self.breakdown.get(category, 0.0)
            if value > 0.0 or category in ("compute", "comm"):
                share = 100.0 * value / self.makespan if self.makespan else 0.0
                lines.append(
                    f"    {category:<12s} {value:10.4f}  ({share:5.1f}%)"
                )
        lines.append(
            f"    {'total':<12s} {self.path.total:10.4f}  "
            f"(makespan {self.makespan:g})"
        )
        if self.fault_cost is not None:
            cost = self.fault_cost
            lines.append(
                f"  fault cost vs nominal: {cost.delta:+.4f} "
                f"(nominal makespan {cost.nominal_makespan:g})"
            )
            for suspect in sorted(
                set(cost.per_suspect) | set(cost.takeover_comm)
            ):
                waited = cost.per_suspect.get(suspect, 0.0)
                resent = cost.takeover_comm.get(suspect, 0.0)
                lines.append(
                    f"    crash of {suspect}: {waited:.4f} timeout-wait"
                    + (f", {resent:.4f} takeover comm" if resent else "")
                    + " on the critical path"
                )
            if cost.per_suspect or cost.takeover_comm:
                lines.append(
                    f"    unattributed displacement: {cost.unattributed:+.4f}"
                )
        if self.diff is not None:
            lines.append("")
            lines.append(self.diff.render())
        if full:
            lines.append("  per-event local slack:")
            for node_id, slack in sorted(
                self.slack.items(), key=lambda item: (item[1], item[0])
            ):
                marker = "*" if node_id in self.path.nodes else " "
                lines.append(f"   {marker} {slack:10.4f}  {node_id}")
        return "\n".join(lines)


def analyze_trace(
    trace: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
    nominal: Optional[IterationTrace] = None,
    method: str = "",
) -> CausalReport:
    """Run the full causal analysis of one simulated iteration.

    With a ``nominal`` trace the report also carries the nominal-vs-fault
    diff and, when the iteration completed (an incomplete one has no
    response time to bill), the fault-cost attribution.  Emits ``causal.*``
    metrics on the ambient instrumentation (no-ops when disabled).
    """
    obs = get_instrumentation()
    with obs.span("causal.analyze", scenario=trace.scenario_name or ""):
        graph = build_causal_graph(trace, schedule)
        path = attribute_critical_path(graph, trace, schedule)
        slack = graph.slack(trace.makespan)
        fault_cost = None
        diff = None
        if nominal is not None and nominal is not trace:
            if trace.completed:
                fault_cost = attribute_fault_cost(
                    graph, path, nominal, schedule, scenario
                )
            diff = diff_traces(nominal, trace, schedule, scenario)
    obs.count("causal.analyses")
    obs.count("causal.nodes", len(graph.nodes))
    obs.count("causal.edges", len(graph.edges))
    obs.count("causal.path_segments", len(path.segments))
    for category, value in path.breakdown.items():
        if value:
            obs.observe(f"causal.breakdown.{category}", value)
    if diff is not None:
        obs.count("causal.diff_events", len(diff.events))
    return CausalReport(
        scenario=trace.scenario_name or str(scenario or ""),
        method=method or schedule.semantics.value,
        makespan=trace.makespan,
        response_time=trace.response_time,
        completed=trace.completed,
        graph=graph,
        path=path,
        slack=slack,
        fault_cost=fault_cost,
        diff=diff,
    )


# ----------------------------------------------------------------------
# Gantt overlay
# ----------------------------------------------------------------------
def critical_overlay(
    trace: IterationTrace, report: CausalReport, width: int = 72
) -> str:
    """The trace Gantt chart with the critical path underlined.

    Chain activity is marked with ``^`` rows under the owning
    processor/link; the wait segments are appended as annotations.
    """
    from ...analysis.gantt import render_trace

    highlight: Dict[str, List[tuple]] = {}
    annotations: List[str] = ["critical path:"]
    for segment in report.path.segments:
        node = report.graph.nodes.get(segment.node)
        if segment.category in ("compute", "comm") and node is not None:
            highlight.setdefault(node.resource, []).append(
                (segment.start, segment.end)
            )
            annotations.append(
                f"  [{segment.start:g}, {segment.end:g}] "
                f"{segment.category}: {node.label}"
            )
        else:
            annotations.append(
                f"  [{segment.start:g}, {segment.end:g}] "
                f"{segment.category}: {segment.detail}"
            )
    return render_trace(
        trace, width=width, annotations=annotations, highlight=highlight
    )


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------
def save_report(
    report: CausalReport, path: Union[str, Path]
) -> Dict[str, Any]:
    """Write the schema-stamped JSON artifact; returns the payload."""
    payload = report.to_dict()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    from ..ledger.session import notify_artifact

    notify_artifact("causal", path)
    return payload


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load + validate a ``repro.obs.causal/1`` artifact (as a dict)."""
    with open(path) as handle:
        payload = json.load(handle)
    from ..schema import validate_stamp

    validate_stamp(
        payload,
        SCHEMA_ID,
        required=("critical_path", "graph", "makespan"),
        where=str(path),
    )
    return payload
