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

:class:`FailureFreePrefix` lets many single iterations of one schedule
(a campaign's scenarios) share the failure-free run: each resumes from
a checkpoint taken just before its first diverging step.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.schedule import Schedule, ScheduleSemantics
from ..obs import Instrumentation, get_instrumentation
from .executive import ExecutiveRuntime
from .faults import FailureScenario
from .trace import IterationTrace

__all__ = [
    "FailureFreePrefix",
    "SimulationRun",
    "simulate",
    "simulate_sequence",
    "transient_then_steady",
]

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


class FailureFreePrefix:
    """The failure-free run of ``schedule``, shared by the single
    iterations simulated under other scenarios.

    A scenario follows the failure-free trajectory exactly until the
    first aliveness question its crashes answer "dead".  The prefix
    runs the failure-free executive once and logs every question as
    (kernel step, processor, compared date): ``alive_at(proc, t)`` and
    ``alive_through(proc, start, t)`` compare ``t`` with a crash date.
    Under permanent processor crashes only, the first diverging step
    is the first logged question on a crashed processor whose date is
    at or after its crash (a bisect over that processor's running
    maximum of dates), the earliest over the crashed processors.  Link
    crashes, outage windows and pre-set fail flags diverge at step 0.

    :meth:`run` resumes a scenario from a checkpoint of the failure-free
    *leader* taken before that step, in one world object (the heap holds
    its bound methods), and runs it to the end.  The leader only moves
    forward while the steps asked for ascend (a campaign runs its
    scenarios in that order); an earlier step starts it again from step
    0.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        world = self._world = ExecutiveRuntime(schedule)
        world.start()
        self._origin = world.checkpoint()
        step = 0
        questions: Dict[str, List[Tuple[int, float]]] = {}

        def ask(proc: str, date: float) -> bool:
            questions.setdefault(proc, []).append((step, date))
            return True

        world.alive_at = ask
        world.alive_through = lambda proc, _start, end: ask(proc, end)
        while world.sim.advance(1):
            step += 1
        #: Kernel steps of the failure-free run.
        self.steps = step
        #: The failure-free trace (the diagnosis's nominal run).
        self.nominal = world.resume()
        #: proc -> (the steps of its questions, the running maximum of
        #: their dates).
        self._questions: Dict[str, Tuple[Tuple[int, ...], List[float]]] = {}
        for proc, asked in questions.items():
            steps, dates = zip(*asked)
            self._questions[proc] = (steps, list(accumulate(dates, max)))
        #: The leader's checkpoint and the kernel step it was taken at.
        self._leader, self._position = self._origin, 0

    def divergence_step(self, scenario: FailureScenario) -> int:
        """The kernel step at which ``scenario`` first answers an
        aliveness question differently (:attr:`steps` if never)."""
        if scenario.link_crashes or scenario.known_failed:
            return 0
        first = self.steps
        for proc in scenario.failed_processors:
            crash = scenario.crash_of(proc)
            if not crash.is_permanent:
                return 0
            steps, maxima = self._questions.get(proc, ((), ()))
            index = bisect_left(maxima, crash.at)
            if index < len(steps):
                first = min(first, steps[index])
        return first

    def run(self, scenario: FailureScenario) -> IterationTrace:
        """Simulate one iteration under ``scenario``, resumed from the
        failure-free run; counts the skipped steps as
        ``sim.prefix_steps``."""
        step = self.divergence_step(scenario)
        world = self._world
        if step < self._position:
            self._leader, self._position = self._origin, 0
        if step > self._position:
            world.restore(self._leader, FailureScenario.none())
            world.sim.advance(step - self._position)
            self._leader, self._position = world.checkpoint(), step
        world.restore(self._leader, scenario)
        get_instrumentation().count("sim.prefix_steps", step)
        return world.resume()


def simulate(
    schedule: Schedule,
    scenario: Optional[FailureScenario] = None,
    prefix: Optional[FailureFreePrefix] = None,
) -> IterationTrace:
    """Simulate one iteration of ``schedule`` under ``scenario``.

    Returns the iteration's trace; its ``response_time`` is the
    paper's evaluation quantity (``inf`` when an output is never
    produced, which is the expected outcome of crashing a baseline
    schedule).  With a ``prefix`` of ``schedule`` the iteration
    resumes from its failure-free run; the trace is the same.
    """
    obs = get_instrumentation()
    scenario = scenario or FailureScenario.none()
    if prefix is None:
        run = ExecutiveRuntime(schedule, scenario).run
    elif schedule is not prefix.schedule:
        raise ValueError("the prefix was built for another schedule")
    else:
        run = partial(prefix.run, scenario)
    with obs.span(
        "sim.iteration",
        scenario=str(scenario),
        semantics=schedule.semantics.value,
    ):
        trace = run()
    _record_trace_metrics(obs, trace)
    LOGGER.debug(
        "simulated %s under %s: response %g, %d frame(s), %d detection(s)",
        schedule.semantics.value, scenario,
        trace.response_time, len(trace.frames), len(trace.detections),
    )
    return trace


def simulate_sequence(
    schedule: Schedule,
    scenarios: Sequence[FailureScenario],
) -> SimulationRun:
    """Simulate several iterations, carrying fail-flag knowledge.

    ``scenarios[i]`` describes iteration ``i``'s failures (crash dates
    are in-iteration).  Every processor keeps its fail-flag array
    between iterations, and the detections of one iteration are known
    to *every* live processor at the next iteration start (the
    paper's Figure 10 send/receive procedures propagate this knowledge
    piggybacked on normal traffic).  For Solution-2 schedules,
    processors down during an iteration are flagged by everyone at its
    end (their missing frames are the detection — Section 7.4).
    """
    obs = get_instrumentation()
    run = SimulationRun()
    flags: Dict[str, Set[str]] = {}
    for index, scenario in enumerate(scenarios):
        runtime = ExecutiveRuntime(
            schedule, scenario, initial_flags=flags, iteration=index
        )
        with obs.span(
            "sim.iteration", scenario=str(runtime.scenario), index=index,
            semantics=schedule.semantics.value,
        ):
            trace = runtime.run()
        _record_trace_metrics(obs, trace)
        run.iterations.append(trace)
        flags = _post_iteration_flags(schedule, scenario, runtime.flags)
    run.final_flags = flags
    return run


def _post_iteration_flags(
    schedule: Schedule,
    scenario: FailureScenario,
    flags: Dict[str, FrozenSet[str]],
) -> Dict[str, Set[str]]:
    """Flag bookkeeping at an iteration boundary, in mutable sets."""
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
    return simulate_sequence(schedule, scenarios)
