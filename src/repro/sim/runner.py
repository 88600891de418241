"""High-level simulation entry points.

:func:`simulate` runs one iteration; :func:`simulate_sequence` chains
iterations with fail-flag knowledge carried over — which is how the
paper's *transient iteration* (the one where the failure happens,
Figure 18(a)) differs from the *subsequent iterations* (the processor
is dead but already detected, Figure 18(b)).

The reactive system executes its data-flow graph once per input event;
we simulate each iteration on its own clock (dates are in-iteration,
starting at 0) and carry only the persistent state between iterations:
the per-processor fail-flag arrays and, for intermittent scenarios,
the outage windows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.schedule import Schedule, ScheduleSemantics
from ..obs import Instrumentation, get_instrumentation
from .executive import ExecutiveRuntime
from .faults import FailureScenario
from .trace import IterationTrace

__all__ = ["SimulationRun", "simulate", "simulate_sequence", "transient_then_steady"]

LOGGER = logging.getLogger(__name__)


def _record_trace_metrics(obs: Instrumentation, trace: IterationTrace) -> None:
    """Fold one iteration's event counts into the metrics registry."""
    if not obs.enabled:
        return
    obs.count("sim.iterations")
    obs.count("sim.frames_sent", len(trace.frames))
    obs.count("sim.frames_delivered", trace.delivered_frame_count)
    obs.count("sim.detections", len(trace.detections))
    obs.count("sim.takeovers", len(trace.takeover_frames()))
    obs.count("sim.executions", len(trace.executions))
    obs.count(
        "sim.aborted_executions",
        sum(1 for record in trace.executions if not record.completed),
    )
    if trace.completed:
        obs.observe("sim.response_time", trace.response_time)


@dataclass
class SimulationRun:
    """The outcome of a multi-iteration simulation."""

    iterations: List[IterationTrace] = field(default_factory=list)
    final_flags: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def response_times(self) -> List[float]:
        """Per-iteration response times (``inf`` for failed iterations)."""
        return [trace.response_time for trace in self.iterations]

    @property
    def all_completed(self) -> bool:
        """True when every iteration delivered all its outputs."""
        return all(trace.completed for trace in self.iterations)

    def iteration(self, index: int) -> IterationTrace:
        return self.iterations[index]


def simulate(
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
    detection: Optional[str] = None,
    initial_flags: Optional[Dict[str, Set[str]]] = None,
    snoop_recovery: Optional[bool] = None,
    iteration: int = 0,
) -> IterationTrace:
    """Simulate one iteration of ``schedule`` under ``scenario``.

    See :class:`~repro.sim.executive.ExecutiveRuntime` for the
    parameters.  Returns the iteration's trace; its ``response_time``
    is the paper's evaluation quantity (``inf`` when an output is
    never produced, which is the expected outcome of crashing a
    baseline schedule).
    """
    obs = get_instrumentation()
    runtime = ExecutiveRuntime(
        schedule,
        scenario,
        detection=detection,
        initial_flags=initial_flags,
        snoop_recovery=snoop_recovery,
        iteration=iteration,
    )
    with obs.span(
        "sim.iteration",
        scenario=str(runtime.scenario),
        semantics=schedule.semantics.value,
    ):
        trace = runtime.run()
    _record_trace_metrics(obs, trace)
    LOGGER.debug(
        "simulated %s under %s: response %g, %d frame(s), %d detection(s)",
        schedule.semantics.value, runtime.scenario,
        trace.response_time, len(trace.frames), len(trace.detections),
    )
    return trace


def simulate_sequence(
    schedule: Schedule,
    scenarios: Sequence[FailureScenario],
    detection: Optional[str] = None,
    carry_flags: bool = True,
    propagate_flags: bool = True,
    snoop_recovery: Optional[bool] = None,
) -> SimulationRun:
    """Simulate several iterations, carrying fail-flag knowledge.

    ``scenarios[i]`` describes iteration ``i``'s failures (crash dates
    are in-iteration).  With ``carry_flags`` every processor keeps its
    fail-flag array between iterations; with ``propagate_flags`` the
    detections of one iteration are known to *every* live processor at
    the next iteration start (the paper's Figure 10 send/receive
    procedures propagate this knowledge piggybacked on normal
    traffic).  For Solution-2 schedules, processors down during an
    iteration are flagged by everyone at its end (their missing frames
    are the detection — Section 7.4).
    """
    obs = get_instrumentation()
    run = SimulationRun()
    flags: Dict[str, Set[str]] = {}
    for index, scenario in enumerate(scenarios):
        runtime = ExecutiveRuntime(
            schedule,
            scenario,
            detection=detection,
            initial_flags=flags if carry_flags else None,
            snoop_recovery=snoop_recovery,
            iteration=index,
        )
        with obs.span(
            "sim.iteration", scenario=str(runtime.scenario), index=index,
            semantics=schedule.semantics.value,
        ):
            trace = runtime.run()
        _record_trace_metrics(obs, trace)
        run.iterations.append(trace)
        flags = runtime.flags
        if carry_flags:
            flags = _post_iteration_flags(
                schedule, scenario, flags, propagate_flags
            )
    # The runtime's arrays are frozen sets: hand back mutable copies.
    run.final_flags = {proc: set(known) for proc, known in flags.items()}
    return run


def _post_iteration_flags(
    schedule: Schedule,
    scenario: FailureScenario,
    flags: Dict[str, Set[str]],
    propagate: bool,
) -> Dict[str, Set[str]]:
    """Flag bookkeeping at an iteration boundary."""
    updated = {proc: set(known) for proc, known in flags.items()}

    if schedule.semantics is ScheduleSemantics.SOLUTION2:
        # Replicated comms mean every live processor notices the
        # missing frames of a dead one by the end of the iteration.
        downed = {
            crash.processor
            for crash in scenario.crashes
            if not scenario.alive_at(crash.processor, math.inf)
            or crash.is_permanent
        }
        for proc, known in updated.items():
            if proc not in downed:
                known.update(downed - {proc})

    if propagate:
        union: Set[str] = set()
        for known in updated.values():
            union.update(known)
        for proc, known in updated.items():
            known.update(union - {proc})
    return updated


def transient_then_steady(
    schedule: Schedule,
    processor: str,
    crash_at: float,
    steady_iterations: int = 1,
    detection: Optional[str] = None,
) -> SimulationRun:
    """The paper's Figure 18 experiment in one call.

    Iteration 0: ``processor`` crashes at ``crash_at`` (the transient
    iteration).  Iterations 1..n: the processor is dead from the start
    and the fail flags carried from iteration 0 let the backups take
    over without paying the timeouts again (the subsequent schedule).
    """
    scenarios = [FailureScenario.crash(processor, crash_at)]
    scenarios.extend(
        FailureScenario.dead_from_start(processor)
        for _ in range(steady_iterations)
    )
    return simulate_sequence(schedule, scenarios, detection=detection)
