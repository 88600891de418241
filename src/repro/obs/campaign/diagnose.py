"""Trace-level failure diagnosis: *why* an iteration never completed.

When a fault-tolerant schedule fails a scenario, the interesting fact
is never "an assertion failed" — it is which outputs went missing,
which value first failed to reach a surviving replica, what every
replica that could have sent it did, and what became of every
watchdog ladder rung guarding it.  The account is the trace differ's
(:func:`~repro.obs.causal.diff_traces`): the faulty trace aligned
against the failure-free run of the same schedule, with each poisoned
availability's sender statuses ("takeover frame lost mid-transmission
(P2 crashed at ...)", "SURVIVOR holding the data ... never sent"), the
first fatal divergence, its ladder ("fired", "skipped",
"watcher-dead", "stood-down" on an observed frame) and the causal
frontier it poisons.  :class:`Diagnosis` puts the missing outputs in
front of it, as structured data and as readable text
(:meth:`Diagnosis.render`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.runner import simulate
from ...sim.trace import IterationTrace

# repro.obs.causal is a sibling leaf of the obs tree: it imports
# core+sim only, so this edge is acyclic.
from ..causal.diff import TraceDiff, diff_traces

__all__ = ["Diagnosis", "diagnose"]


@dataclass
class Diagnosis:
    """The account of one failing (or passing) iteration."""

    scenario: str
    completed: bool
    #: The nominal-vs-fault trace diff: the poisoned availabilities with
    #: their sender statuses, the first fatal divergence, its ladder
    #: and the causal frontier it poisons.
    divergence: TraceDiff
    missing_outputs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.completed and not self.divergence.poisoned

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "completed": self.completed,
            "missing_outputs": list(self.missing_outputs),
            "divergence": self.divergence.to_dict(),
        }

    def render(self) -> str:
        """The diagnosis as readable text (one line per fact)."""
        if self.ok:
            return f"scenario {self.scenario}: iteration completed"
        if self.completed:
            head = (
                f"scenario {self.scenario}: iteration completed, but some "
                "surviving replicas starved"
            )
        else:
            head = (
                f"scenario {self.scenario}: iteration INCOMPLETE — outputs "
                f"never produced: {', '.join(self.missing_outputs) or '-'}"
            )
        return head + "\n" + self.divergence.render()


def diagnose(
    trace: IterationTrace,
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
    nominal: Optional[IterationTrace] = None,
) -> Diagnosis:
    """Explain why ``trace`` starved, against ``nominal``, the
    failure-free trace of the same schedule (simulated here when not
    given)."""
    scenario = scenario or FailureScenario.none()
    if nominal is None:
        nominal = simulate(schedule, FailureScenario.none())
    return Diagnosis(
        scenario=trace.scenario_name or str(scenario),
        completed=trace.completed,
        divergence=diff_traces(nominal, trace, schedule, scenario),
        missing_outputs=[
            op for op in trace.expected_outputs if op not in trace.output_times
        ],
    )
