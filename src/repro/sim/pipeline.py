"""Pipelined execution: overlapping iterations at a fixed period.

The reactive loop executes the data-flow graph once per input event.
:mod:`repro.sim.runner` simulates iterations *run-to-completion* (the
next one starts after the previous drained — always correct, never
fast).  Real deployments pipeline: while the actuator side finishes
iteration ``k``, the sensor side already samples ``k + 1``.  The
static bound for that regime with in-order units is
:func:`repro.analysis.periodic.executive_period_bound` (no unit's
iteration span longer than one period); this module validates it
dynamically.

:func:`simulate_pipelined` releases one iteration every ``period``
time units and runs each as an
:class:`~repro.sim.executive.ExecutiveRuntime`, all on one simulator
and one set of links (:meth:`~repro.sim.executive.ExecutiveRuntime.successor`):
every unit and sender runs the executive's process bodies once per
iteration, in order, with sends at the release plus their planned
dates.  With one iteration the run is :func:`~repro.sim.simulate`.

Scope: ``BASELINE`` and ``SOLUTION2`` schedules.  ``SOLUTION1`` is
rejected on purpose — its watchdog deadlines are absolute in-iteration
dates anchored on the run-to-completion plan, and overlapping
iterations would shift frames past them, causing systematic spurious
elections.  (Making Solution 1 pipeline-safe would need
period-parametric ladders; the paper targets run-to-completion
executives, and so does ours.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.schedule import Schedule, ScheduleSemantics
from .executive import ExecutiveRuntime
from .faults import FailureScenario

__all__ = ["PipelineResult", "simulate_pipelined"]


@dataclass
class PipelineResult:
    """Outcome of a pipelined run."""

    period: float
    iterations: int
    #: Completion date of each iteration (inf when it never finished).
    completion_times: List[float] = field(default_factory=list)

    @property
    def release_times(self) -> List[float]:
        return [index * self.period for index in range(self.iterations)]

    @property
    def response_times(self) -> List[float]:
        """Per-iteration latency: completion minus release."""
        return [
            completion - release
            for completion, release in zip(
                self.completion_times, self.release_times
            )
        ]

    @property
    def all_completed(self) -> bool:
        return all(math.isfinite(c) for c in self.completion_times)

    @property
    def max_response(self) -> float:
        responses = self.response_times
        return max(responses) if responses else 0.0

    @property
    def drift(self) -> float:
        """Response growth from the first to the last iteration.

        ~0 when the period is sustainable (steady state); positive and
        roughly linear in the iteration count when the system is
        overloaded (the backlog grows every period).
        """
        responses = self.response_times
        if len(responses) < 2:
            return 0.0
        return responses[-1] - responses[0]

    def is_sustainable(self, tolerance: float = 1e-6) -> bool:
        """True when every iteration completed and lateness stabilized."""
        return self.all_completed and self.drift <= tolerance


def simulate_pipelined(
    schedule: Schedule,
    period: float,
    iterations: int = 10,
    scenario: Optional[FailureScenario] = None,
) -> PipelineResult:
    """Run ``iterations`` overlapping iterations, one per ``period``.

    ``scenario`` crash dates are absolute over the whole run (a
    processor dead from t=5 misses every iteration active after 5).
    """
    if schedule.semantics is ScheduleSemantics.SOLUTION1:
        raise ValueError(
            "pipelined execution is not defined for Solution-1 schedules: "
            "the watchdog deadlines assume run-to-completion iterations "
            "(use repro.sim.simulate_sequence instead)"
        )
    if period <= 0:
        raise ValueError("period must be positive")
    if iterations <= 0:
        raise ValueError("need at least one iteration")

    runtimes = [ExecutiveRuntime(schedule, scenario)]
    for index in range(1, iterations):
        runtimes.append(runtimes[-1].successor(index * period))
    runtimes[0].run()
    return PipelineResult(
        period=period,
        iterations=iterations,
        completion_times=[runtime.trace.response_time for runtime in runtimes],
    )
