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

Everything here is extracted read-only from :mod:`repro.core` /
:mod:`repro.graphs`; no simulator module is imported.  The verifier
(:mod:`repro.lint.proof.verifier`) interprets this structure under
abstract crash dates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...core.schedule import Schedule, ScheduleSemantics
from ...core.timeline import event_boundaries
from ...graphs.problem import Problem

__all__ = ["LadderRung", "DeliveryAutomaton", "compile_automaton"]

DependencyKey = Tuple[str, str]

#: Arrival exactly at the worst-case bound is timely — must match the
#: executive's constant or the static deadlines diverge from runtime.
DEADLINE_SLACK = 1e-9


@dataclass(frozen=True)
class LadderRung:
    """One timeout-ladder entry: watch ``candidate`` until ``deadline``."""

    candidate: str
    rank: int
    deadline: float


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
    #: Per processor, the replicas it runs in static order.
    timeline: Dict[str, Tuple[Tuple[str, float], ...]]
    predecessors: Dict[str, Tuple[str, ...]]
    out_deps: Dict[str, Tuple[DependencyKey, ...]]
    operations: Tuple[str, ...]
    replicas: Dict[str, Tuple[str, ...]]
    rank: Dict[Tuple[str, str], int]
    #: Consumers that need the dependency over the network.
    destinations: Dict[DependencyKey, Tuple[str, ...]]
    #: Statically scheduled senders (rank 0, or all ranks for Solution 2).
    planned_senders: Dict[DependencyKey, Tuple[str, ...]]
    planned_release: Dict[Tuple[DependencyKey, str], Optional[float]]
    #: (op, dep, watcher) -> rungs in rank order; the watcher takes over
    #: after its last rung, unless the one-shot observe stood it down.
    ladders: Dict[Tuple[str, DependencyKey, str], Tuple[LadderRung, ...]]
    #: Watchdog spawn order (mirrors the executive exactly).
    watch_order: Tuple[Tuple[str, DependencyKey, str], ...]
    detection: str
    snoop_recovery: bool
    is_bus: Dict[str, bool]
    _event_keys: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lookups used by the verifier's inner loop (routes and frame
    # groups come from ``problem.routing``'s static comm plan)
    # ------------------------------------------------------------------
    def event_keys(self) -> tuple:
        """Keys of one run's event tables, built once: ``(dep, proc)``
        data arrivals, per-dependency observes, ``(op, proc)`` productions."""
        if self._event_keys is None:
            deps = [dep for deps in self.out_deps.values() for dep in deps]
            self._event_keys = (
                tuple((dep, proc) for dep in deps for proc in self.processors),
                tuple(deps),
                tuple(
                    (op, proc)
                    for op in self.predecessors
                    for proc in self.processors
                ),
            )
        return self._event_keys

    def comm_duration(self, dep: DependencyKey, link: str) -> float:
        return self.problem.communication.duration(dep, link)

    def exec_duration(self, op: str, proc: str) -> float:
        return self.problem.execution.duration(op, proc)

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


def _destinations(schedule: Schedule, dep: DependencyKey) -> Tuple[str, ...]:
    """Processors that must receive ``dep`` over the network (the
    executive's rule: consumer hosts without a producer replica)."""
    src, dst = dep
    return tuple(
        sorted(
            proc
            for proc in schedule.processors_of(dst)
            if schedule.replica_on(src, proc) is None
        )
    )


def compile_automaton(
    schedule: Schedule,
    detection: Optional[str] = None,
    snoop_recovery: Optional[bool] = None,
) -> DeliveryAutomaton:
    """Extract the delivery automaton of ``schedule`` (read-only)."""
    problem = schedule.problem
    architecture = problem.architecture
    algorithm = problem.algorithm
    if detection is None:
        detection = "snoop" if architecture.has_bus else "oracle"
    if detection not in ("snoop", "oracle"):
        raise ValueError(f"unknown detection mode {detection!r}")
    if snoop_recovery is None:
        snoop_recovery = (
            schedule.semantics is ScheduleSemantics.SOLUTION1
            and architecture.is_single_bus
        )

    processors = tuple(architecture.processor_names)
    timeline = {
        proc: tuple(
            (placement.op, problem.execution.duration(placement.op, proc))
            for placement in schedule.processor_timeline(proc)
        )
        for proc in processors
    }
    predecessors = {
        op: tuple(algorithm.predecessors(op))
        for op in algorithm.operation_names
    }
    out_deps = {
        op: tuple(dep.key for dep in algorithm.out_dependencies(op))
        for op in algorithm.operation_names
    }

    operations = tuple(schedule.operations)
    replicas: Dict[str, Tuple[str, ...]] = {}
    rank: Dict[Tuple[str, str], int] = {}
    for op in operations:
        hosts = tuple(r.processor for r in schedule.replicas(op))
        replicas[op] = hosts
        for index, proc in enumerate(hosts):
            rank[(op, proc)] = index

    destinations: Dict[DependencyKey, Tuple[str, ...]] = {}
    planned_senders: Dict[DependencyKey, Tuple[str, ...]] = {}
    planned_release: Dict[Tuple[DependencyKey, str], Optional[float]] = {}
    for op in operations:
        for dep in out_deps.get(op, ()):
            destinations[dep] = _destinations(schedule, dep)
            if schedule.semantics is ScheduleSemantics.SOLUTION2:
                planned_senders[dep] = replicas[op]
            else:
                planned_senders[dep] = (replicas[op][0],) if replicas[op] else ()
            for sender in replicas[op]:
                starts = [
                    slot.start
                    for slot in schedule.comms_for_dependency(dep)
                    if slot.hop == 0 and slot.sender == sender
                ]
                planned_release[(dep, sender)] = min(starts) if starts else None

    ladders: Dict[Tuple[str, DependencyKey, str], Tuple[LadderRung, ...]] = {}
    watch_order: List[Tuple[str, DependencyKey, str]] = []
    if schedule.semantics is ScheduleSemantics.SOLUTION1:
        for op in operations:
            hosts = schedule.replicas(op)
            for backup in hosts[1:]:
                for dep in out_deps.get(op, ()):
                    if not destinations[dep]:
                        # Intra-processor communication: no OpComm.
                        continue
                    key = (op, dep, backup.processor)
                    ladders[key] = tuple(
                        LadderRung(e.candidate, e.rank, e.deadline)
                        for e in schedule.timeout_ladder(
                            op, dep, backup.processor
                        )
                    )
                    watch_order.append(key)

    return DeliveryAutomaton(
        schedule=schedule,
        problem=problem,
        semantics=schedule.semantics,
        processors=processors,
        failures=problem.failures,
        outputs=tuple(algorithm.outputs),
        boundaries=tuple(event_boundaries(schedule)),
        makespan=schedule.makespan,
        timeline=timeline,
        predecessors=predecessors,
        out_deps=out_deps,
        operations=operations,
        replicas=replicas,
        rank=rank,
        destinations=destinations,
        planned_senders=planned_senders,
        planned_release=planned_release,
        ladders=ladders,
        watch_order=tuple(watch_order),
        detection=detection,
        snoop_recovery=snoop_recovery,
        is_bus={
            link: architecture.link(link).is_bus
            for link in architecture.link_names
        },
    )
