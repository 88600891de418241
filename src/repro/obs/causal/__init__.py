"""Causal trace analysis: event graphs, critical paths, trace diffing.

The simulator records *what* happened (:mod:`repro.sim.trace`); this
package reconstructs *why*.  It compiles any :class:`IterationTrace`
into a causal event graph (executions, frames, detections; edges from
data dependencies, resource occupancy, and watchdog triggers), walks
the unique chain whose lengths sum exactly to the observed makespan,
and aligns faulty traces against the nominal run of the same schedule
to find the first divergence and the causal frontier it poisons.

Layering: this package depends on :mod:`repro.core` and
:mod:`repro.sim` (like :mod:`repro.obs.campaign`) and is therefore
*not* re-exported from :mod:`repro.obs`, which must stay a leaf the
schedulers can import.
"""

from .graph import CausalEdge, CausalGraph, CausalNode, build_causal_graph
from .critical import (
    CriticalPath,
    FaultCost,
    PathSegment,
    attribute_critical_path,
    attribute_fault_cost,
)
from .diff import (
    DiffEvent,
    FatalDivergence,
    LadderState,
    PoisonedAvailability,
    TraceDiff,
    diff_traces,
    ladder_states,
)
from .report import (
    SCHEMA_ID,
    CausalReport,
    analyze_trace,
    critical_overlay,
    load_report,
    save_report,
)

__all__ = [
    "CausalNode",
    "CausalEdge",
    "CausalGraph",
    "build_causal_graph",
    "PathSegment",
    "CriticalPath",
    "FaultCost",
    "attribute_critical_path",
    "attribute_fault_cost",
    "DiffEvent",
    "LadderState",
    "PoisonedAvailability",
    "FatalDivergence",
    "TraceDiff",
    "diff_traces",
    "ladder_states",
    "SCHEMA_ID",
    "CausalReport",
    "analyze_trace",
    "critical_overlay",
    "save_report",
    "load_report",
]
