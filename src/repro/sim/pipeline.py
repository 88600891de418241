"""Pipelined execution: overlapping iterations at a fixed period.

The reactive loop executes the data-flow graph once per input event.
:mod:`repro.sim.runner` simulates iterations *run-to-completion* (the
next one starts after the previous drained — always correct, never
fast).  Real deployments pipeline: while the actuator side finishes
iteration ``k``, the sensor side already samples ``k + 1``.  The
static bound for that regime is
:func:`repro.analysis.periodic.min_period` (no unit busier than one
period); this module validates it dynamically.

:func:`simulate_pipelined` releases one iteration every ``period``
time units and runs them all over a single shared timeline: every
computation unit loops over its static sequence once per iteration
(its own iterations stay in order — the unit is sequential), frames
are tagged with their iteration, links serialize across everything.

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
from typing import Dict, List, Optional, Tuple

from ..core.executive_plan import OpRow
from ..core.schedule import Schedule, ScheduleSemantics
from .engine import EventTable, Simulator
from .faults import FailureScenario
from .network import NetworkRuntime
from .trace import IterationTrace

__all__ = ["PipelineResult", "simulate_pipelined"]

DependencyKey = Tuple[str, str]


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

    problem = schedule.problem
    scenario = scenario or FailureScenario.none()
    scenario.check_against(
        problem.architecture.processor_names, problem.architecture.link_names
    )

    sim = Simulator()
    trace = IterationTrace(scenario_name=f"pipelined(T={period:g})")
    # Event tables (see repro.sim.engine): ``(dep, proc, iteration)``
    # arrivals, ``(op, proc, iteration)`` productions.
    data: EventTable = {}
    produced: EventTable = {}
    wait, fire = sim.wait, sim.fire

    def on_deliver(dep: DependencyKey, dest: str, time: float, iteration) -> None:
        fire(data, (dep, dest, iteration))  # a frame's payload: its iteration

    network = NetworkRuntime(
        sim, problem, scenario, trace, on_deliver, lambda *_frame: None
    )

    plan = schedule.executive_plan
    outputs = plan.outputs
    completion: Dict[int, float] = {}
    #: First production date per (iteration, output operation).
    first_output: Dict[Tuple[int, str], float] = {}

    def alive(proc: str) -> bool:
        return scenario.alive_at(proc, sim.now)

    # A computation unit runs its rows once per iteration, at position
    # ``(iteration, index)``; a sender sends its plans in ``out_deps``
    # order once per iteration.  Both are explicit-state callbacks.
    def unit_ready(unit: Tuple[str, Tuple[OpRow, ...]], position) -> None:
        proc, rows = unit
        iteration, index = position
        if iteration == iterations or not rows:
            return
        op, _proc, preds, _duration, _out, _output, _ = rows[index]
        if not preds:
            release, now = iteration * period, sim.now
            if now < release:
                # Input extios sample the event of *this* iteration,
                # which exists only from its release date on.
                return sim.at(now + (release - now), unit_start, unit, position)
        for pred in preds:
            if wait(data, ((pred, op), proc, iteration), unit_ready, unit, position):
                return
        unit_start(unit, position)

    def unit_start(unit: Tuple[str, Tuple[OpRow, ...]], position) -> None:
        proc, rows = unit
        if alive(proc):
            iteration, index = position
            start = sim.now
            sim.at(start + rows[index][3], unit_done, unit, (iteration, index, start))

    def unit_done(unit: Tuple[str, Tuple[OpRow, ...]], position) -> None:
        proc, rows = unit
        iteration, index, start = position
        op, _proc, _preds, _duration, out_deps, is_output, _ = rows[index]
        end = sim.now
        if not scenario.alive_through(proc, start, end):
            return
        for dep in out_deps:
            fire(data, (dep, proc, iteration))
        fire(produced, (op, proc, iteration))
        if is_output:
            key = (iteration, op)
            if key not in first_output:
                first_output[key] = end
            if all((iteration, out) in first_output for out in outputs):
                completion[iteration] = max(
                    first_output[(iteration, out)] for out in outputs
                )
        next_row = (iteration, index + 1)
        unit_ready(unit, next_row if index + 1 < len(rows) else (iteration + 1, 0))

    def sender_ready(sender, iteration: int) -> None:
        op, proc, _plans = sender
        if iteration == iterations:
            return
        if wait(produced, (op, proc, iteration), sender_ready, sender, iteration):
            return
        if alive(proc):
            sender_wait(sender, (iteration, 0))

    def sender_wait(sender, position) -> None:
        """Wait for the planned date of send ``index`` if it is ahead."""
        iteration, index = position
        plans = sender[2]
        if index == len(plans):
            return sender_ready(sender, iteration + 1)
        planned = plans[index][0]
        if planned is not None:
            target, now = iteration * period + planned, sim.now
            if now < target:
                return sim.at(now + (target - now), sender_send, sender, position)
        sender_send(sender, position)

    def sender_send(sender, position) -> None:
        _op, proc, plans = sender
        if alive(proc):
            iteration, index = position
            _planned, dep, dests = plans[index]
            network.dispatch(dep, proc, dests, payload=iteration)
            sender_wait(sender, (iteration, index + 1))

    for proc, rows in plan.timelines.items():
        sim.at(0.0, unit_ready, (proc, rows), (0, 0))
    for row in plan.senders:
        plans = []
        for dep in row.out_deps:
            dests = [d for d in plan.destinations[dep] if d != row.processor]
            if dests:
                plans.append((plan.planned_release[(dep, row.processor)], dep, dests))
        sim.at(0.0, sender_ready, (row.op, row.processor, tuple(plans)), 0)

    sim.run()

    return PipelineResult(
        period=period,
        iterations=iterations,
        completion_times=[
            completion.get(index, math.inf) for index in range(iterations)
        ],
    )
