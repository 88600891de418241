"""Compile a schedule into an explicit delivery automaton.

The automaton is a *static* description of everything the generated
executive will do at run time to deliver each data-dependency:

* which replicas are statically scheduled to send (the main replica
  under Solution 1 / baseline, every replica under Solution 2), at
  which planned release dates, to which destinations, over which
  routes;
* which backup replicas watch the message with which timeout-ladder
  rungs (from ``core/timeouts.py``), in rank order — each rung is an
  edge that can *re-arm* a takeover;
* the **stand-down edge**: the per-dependency ``observed`` fact is
  one-shot, so once the first observable frame *completes*, every
  watcher that reads it at a rung's deadline stands down.

The automaton holds the schedule's compiled
:class:`~repro.core.executive_plan.ExecutivePlan` itself (``plan``:
op rows, planned sender replicas, destinations, planned release dates,
ladders and watchdog order, the objects the simulated executive also
reads, the observable links and snoop recovery included) plus the
facts only the prover needs (replica ranks, the static event
boundaries that name crash classes).  Everything here is extracted
read-only from :mod:`repro.core` / :mod:`repro.graphs`.  The verifier
(:mod:`repro.lint.proof.verifier`) runs the executive's protocol
(:mod:`repro.sim.protocol`) over it under abstract crash dates, on
the discrete-event kernel of :mod:`repro.sim.engine`; nothing else in
:mod:`repro.sim` is imported by the prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ...core.executive_plan import ExecutivePlan, LadderRung
from ...core.schedule import Schedule, ScheduleSemantics
from ...core.timeline import event_boundaries

__all__ = ["LadderRung", "DeliveryAutomaton", "compile_automaton"]


@dataclass
class DeliveryAutomaton:
    """The compiled, statically known delivery protocol of a schedule."""

    schedule: Schedule
    semantics: ScheduleSemantics
    processors: Tuple[str, ...]
    failures: int
    boundaries: Tuple[float, ...]
    operations: Tuple[str, ...]
    replicas: Dict[str, Tuple[str, ...]]
    rank: Dict[Tuple[str, str], int]
    #: The schedule's compiled executive, read by both worlds.
    plan: ExecutivePlan

    def summary(self) -> Dict[str, object]:
        """Automaton shape, persisted into the proof artifact."""
        plan, deps = self.plan, {}
        for dep, dests in sorted(plan.destinations.items()):
            if not dests:
                continue
            src = dep[0]
            watchers = [
                watcher
                for (op, d, watcher) in plan.watch_order
                if op == src and d == dep
            ]
            deps["%s -> %s" % dep] = {
                "senders": list(plan.planned_senders[dep]),
                "destinations": list(dests),
                "watchers": watchers,
                "ladder_rungs": sum(
                    len(plan.ladders.get((src, dep, w), ())) for w in watchers
                ),
            }
        return {
            "semantics": self.semantics.value,
            "detection": plan.detection,
            "processors": list(self.processors),
            "failures": self.failures,
            "windows": len(self.boundaries),
            "dependencies": deps,
        }


def compile_automaton(schedule: Schedule) -> DeliveryAutomaton:
    """Extract the delivery automaton of ``schedule`` (read-only)."""
    operations = tuple(schedule.operations)
    replicas: Dict[str, Tuple[str, ...]] = {}
    rank: Dict[Tuple[str, str], int] = {}
    for op in operations:
        hosts = tuple(r.processor for r in schedule.replicas(op))
        replicas[op] = hosts
        for index, proc in enumerate(hosts):
            rank[(op, proc)] = index

    return DeliveryAutomaton(
        schedule=schedule,
        semantics=schedule.semantics,
        processors=tuple(schedule.problem.architecture.processor_names),
        failures=schedule.problem.failures,
        boundaries=tuple(event_boundaries(schedule)),
        operations=operations,
        replicas=replicas,
        rank=rank,
        plan=schedule.executive_plan,
    )
