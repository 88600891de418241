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
* the **stand-down edge**: the per-dependency ``observed`` signal is
  one-shot, so the first observable frame (or the mere *dispatch* of a
  takeover frame) permanently retires every still-waiting watcher.

The op rows, planned sender replicas, destinations, planned release
dates, ladders and watchdog order are the schedule's compiled
:class:`~repro.core.executive_plan.ExecutivePlan` itself, the objects
the simulated executive also reads, and the detection settings come
from the same :func:`~repro.core.executive_plan.resolve_detection`.
Everything here is extracted read-only from :mod:`repro.core` /
:mod:`repro.graphs`.  The verifier (:mod:`repro.lint.proof.verifier`)
interprets this structure under abstract crash dates on the
discrete-event kernel of :mod:`repro.sim.engine`; nothing else in
:mod:`repro.sim` is imported by the prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...core.executive_plan import LadderRung, OpRow, resolve_detection
from ...core.schedule import Schedule, ScheduleSemantics
from ...core.timeline import event_boundaries
from ...graphs.problem import Problem

__all__ = ["LadderRung", "DeliveryAutomaton", "compile_automaton"]

DependencyKey = Tuple[str, str]


@dataclass
class DeliveryAutomaton:
    """The compiled, statically known delivery protocol of a schedule."""

    schedule: Schedule
    problem: Problem
    semantics: ScheduleSemantics
    processors: Tuple[str, ...]
    failures: int
    outputs: Tuple[str, ...]
    boundaries: Tuple[float, ...]
    makespan: float
    operations: Tuple[str, ...]
    replicas: Dict[str, Tuple[str, ...]]
    rank: Dict[Tuple[str, str], int]
    #: The plan's own objects (see ExecutivePlan for their meaning).
    timelines: Dict[str, Tuple[OpRow, ...]]
    senders: Tuple[OpRow, ...]
    destinations: Dict[DependencyKey, Tuple[str, ...]]
    planned_senders: Dict[DependencyKey, Tuple[str, ...]]
    planned_release: Dict[Tuple[DependencyKey, str], Optional[float]]
    ladders: Dict[Tuple[str, DependencyKey, str], Tuple[LadderRung, ...]]
    watch_order: Tuple[Tuple[str, DependencyKey, str], ...]
    detection: str
    snoop_recovery: bool
    is_bus: Dict[str, bool]

    # ------------------------------------------------------------------
    # Lookups used by the verifier's inner loop (routes and frame
    # groups come from ``problem.routing``'s static comm plan)
    # ------------------------------------------------------------------
    def comm_duration(self, dep: DependencyKey, link: str) -> float:
        return self.problem.communication.duration(dep, link)

    def observable(self, link: str) -> bool:
        """True when a completed frame on ``link`` fires ``observed``."""
        return self.detection == "oracle" or self.is_bus[link]

    def summary(self) -> Dict[str, object]:
        """Automaton shape, persisted into the proof artifact."""
        deps = {}
        for dep, dests in sorted(self.destinations.items()):
            if not dests:
                continue
            src = dep[0]
            watchers = [
                watcher
                for (op, d, watcher) in self.watch_order
                if op == src and d == dep
            ]
            deps["%s -> %s" % dep] = {
                "senders": list(self.planned_senders[dep]),
                "destinations": list(dests),
                "watchers": watchers,
                "ladder_rungs": sum(
                    len(self.ladders.get((src, dep, w), ())) for w in watchers
                ),
            }
        return {
            "semantics": self.semantics.value,
            "detection": self.detection,
            "processors": list(self.processors),
            "failures": self.failures,
            "windows": len(self.boundaries),
            "dependencies": deps,
        }


def compile_automaton(
    schedule: Schedule,
    detection: Optional[str] = None,
    snoop_recovery: Optional[bool] = None,
) -> DeliveryAutomaton:
    """Extract the delivery automaton of ``schedule`` (read-only)."""
    problem = schedule.problem
    architecture = problem.architecture
    detection, snoop_recovery = resolve_detection(
        schedule, detection, snoop_recovery
    )
    plan = schedule.executive_plan

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
        problem=problem,
        semantics=schedule.semantics,
        processors=tuple(architecture.processor_names),
        failures=problem.failures,
        outputs=plan.outputs,
        boundaries=tuple(event_boundaries(schedule)),
        makespan=schedule.makespan,
        operations=operations,
        replicas=replicas,
        rank=rank,
        timelines=plan.timelines,
        senders=plan.senders,
        destinations=plan.destinations,
        planned_senders=plan.planned_senders,
        planned_release=plan.planned_release,
        ladders=plan.ladders,
        watch_order=plan.watch_order,
        detection=detection,
        snoop_recovery=snoop_recovery,
        is_bus={
            link: architecture.link(link).is_bus
            for link in architecture.link_names
        },
    )
