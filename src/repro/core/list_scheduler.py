"""The greedy list-scheduling skeleton shared by all three heuristics.

Both fault-tolerant heuristics (Figures 11 and 20 of the paper) and the
plain SynDEx baseline follow the same macro-structure:

S0.  the candidate list holds the operations whose predecessors are all
     scheduled (initially the graph inputs);
Sn.  while candidates remain:
     mSn.1  for every candidate operation, evaluate the schedule
            pressure of placing it on every capable processor and keep
            the ``K + 1`` best placements;
     mSn.2  select the candidate whose kept pressures contain the
            largest value (the most urgent operation);
     mSn.3  commit the selected operation on its kept processors,
            together with the communications this implies;
     mSn.4  update the candidate list.

Subclasses implement :meth:`evaluate_placement` (how ``S(n)(o, p)`` is
computed, i.e. where the inputs come from) and :meth:`commit` (which
replicas and comms are appended).  The skeleton records a
:class:`StepRecord` per iteration so the paper's intermediate schedules
(Figures 14-16) can be reproduced exactly.
"""

from __future__ import annotations

import abc
import logging
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.problem import InfeasibleProblemError, Problem
from ..obs import (
    CandidateEvaluation,
    DecisionLog,
    DecisionRecord,
    get_instrumentation,
)
from .evalcache import EvaluationCache, commit_writes
from .pressure import PressurePrePass
from .schedule import (
    CommSlot,
    ReplicaPlacement,
    Schedule,
    ScheduleSemantics,
)
from .timeline import CommPlanner, TimelineState

__all__ = [
    "PlacementEvaluation",
    "StepRecord",
    "ScheduleResult",
    "ListScheduler",
    "explore_seeds",
    "best_over_seeds",
]

LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlacementEvaluation:
    """The evaluated cost of placing one operation on one processor.

    ``start`` is ``S(n)(o, p)``, ``end`` is ``S + Delta`` and
    ``pressure`` is ``sigma(n)(o, p)``.
    """

    op: str
    processor: str
    start: float
    end: float
    pressure: float

    @property
    def sort_key(self) -> Tuple[float, str]:
        """Deterministic ordering: by pressure then processor name."""
        return (self.pressure, self.processor)


@dataclass(frozen=True)
class StepRecord:
    """What happened at one step of the heuristic (for Figures 14-16)."""

    index: int
    op: str
    urgency: float
    kept: Tuple[PlacementEvaluation, ...]
    placements: Tuple[ReplicaPlacement, ...]
    comms: Tuple[CommSlot, ...]

    @property
    def main_processor(self) -> str:
        """The processor elected main for the scheduled operation."""
        return self.placements[0].processor


@dataclass
class ScheduleResult:
    """The output of a scheduler run: the schedule plus its history."""

    schedule: Schedule
    steps: List[StepRecord]
    prepass: PressurePrePass
    #: Structured decision records (``repro explain``); also reachable
    #: as ``schedule.decision_log`` for the FT3xx lint pass.
    decisions: Optional[DecisionLog] = None

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def partial_schedule(self, steps: int) -> Schedule:
        """The schedule after only the first ``steps`` heuristic steps.

        Used to regenerate the paper's intermediate timing diagrams
        (e.g. Figure 14 = two steps, Figure 15 = three steps).
        """
        partial = Schedule(self.schedule.problem, self.schedule.semantics)
        for record in self.steps[:steps]:
            for placement in record.placements:
                partial.add_replica(placement)
            for slot in record.comms:
                partial.add_comm(slot)
        return partial.freeze()


class ListScheduler(abc.ABC):
    """Base class of the three scheduling heuristics.

    Parameters
    ----------
    problem:
        The scheduling problem; ``problem.failures`` fixes ``K``.
    estimate_mode:
        Duration estimator of the schedule-pressure pre-pass
        (``average`` | ``min`` | ``max``; DESIGN.md reconstruction 1).
    seed:
        ``None`` (default) resolves every pressure tie
        deterministically, by processor/operation name.  An integer
        seed resolves ties randomly instead, as the paper does ("one
        is randomly chosen among them", micro-step mSn.2) — different
        seeds explore different equally-pressured schedules; see
        :func:`explore_seeds`.
    use_eval_cache:
        ``True`` (default) memoizes placement evaluations per
        (operation, processor) pair, each with its read set: the
        evaluated processor's frontier and the link frontiers its
        tentative transfers consulted.  After each commit only the
        entries that read a processor or link the commit wrote are
        invalidated (:mod:`repro.core.evalcache`).  Schedules are
        bitwise identical either way — the cache only skips
        recomputation of values proven unchanged; ``False`` is the
        escape hatch (``--no-eval-cache`` on the CLI) for debugging
        and for the cache-effectiveness benchmarks.
    """

    #: How the runtime must interpret the produced schedule.
    semantics: ScheduleSemantics = ScheduleSemantics.BASELINE

    #: Two pressures closer than this are considered tied.
    TIE_EPSILON = 1e-9

    def __init__(
        self,
        problem: Problem,
        estimate_mode: str = "average",
        seed: Optional[int] = None,
        use_eval_cache: bool = True,
    ) -> None:
        problem.check()
        self.problem = problem
        self.prepass = PressurePrePass.for_problem(problem, estimate_mode)
        self.planner = CommPlanner(problem)
        self.state = TimelineState.for_problem(problem)
        #: Memoized placement evaluations (None = caching disabled).
        self.eval_cache: Optional[EvaluationCache] = (
            EvaluationCache() if use_eval_cache else None
        )
        self.rng = None if seed is None else random.Random(seed)
        #: Election order of each scheduled operation's processors
        #: (main first); filled in by :meth:`commit`.
        self.placement_order: Dict[str, List[ReplicaPlacement]] = {}
        #: The active observability sink (metrics + spans); refreshed
        #: at :meth:`run` so a profiling session started after
        #: construction is still honoured.
        self.obs = get_instrumentation()
        #: Structured decision records, one per heuristic step.
        self.decisions = DecisionLog(
            tie_break="name-order" if self.rng is None else "random"
        )
        #: All evaluations of the last :meth:`_keep_best` call per op,
        #: best (lowest pressure) first — the raw material of the
        #: decision records.
        self._evaluated: Dict[str, List[PlacementEvaluation]] = {}
        #: The candidate records of the last step, by ``id`` of their
        #: evaluation: an evaluation the cache serves again with the
        #: same ``kept`` flag reuses its record.  Each entry holds its
        #: evaluation, so no other object can take that ``id`` while
        #: the entry lives.
        self._candidate_records: Dict[
            int, Tuple[PlacementEvaluation, CandidateEvaluation]
        ] = {}

    # ------------------------------------------------------------------
    # To be provided by concrete heuristics
    # ------------------------------------------------------------------
    @property
    def replication_degree(self) -> int:
        """How many replicas each operation receives (``K + 1``)."""
        return self.problem.replication_degree

    @abc.abstractmethod
    def evaluate_placement(
        self, op: str, proc: str, links: Set[str]
    ) -> PlacementEvaluation:
        """Tentatively place ``op`` on ``proc`` (no state mutation).

        Adds to ``links`` every link whose frontier the evaluation read.
        """

    @abc.abstractmethod
    def commit(
        self, op: str, kept: Sequence[PlacementEvaluation]
    ) -> Tuple[List[ReplicaPlacement], List[CommSlot]]:
        """Definitively place ``op`` on the kept processors.

        Must mutate :attr:`state`, fill :attr:`placement_order` for
        ``op`` and return the placements (main first) and the created
        comm slots.
        """

    def finalize(self, schedule: Schedule) -> None:
        """Hook run once after the main loop (e.g. timeout tables)."""

    # ------------------------------------------------------------------
    # The shared greedy loop
    # ------------------------------------------------------------------
    def run(self) -> ScheduleResult:
        """Execute the heuristic and return the frozen schedule."""
        self.obs = get_instrumentation()
        with self.obs.span(
            "scheduler.run", method=type(self).__name__,
            operations=len(self.problem.algorithm),
        ):
            result = self._run_instrumented()
        LOGGER.info(
            "%s scheduled %d operation(s) in %d step(s): makespan %g",
            type(self).__name__,
            len(self.problem.algorithm),
            len(result.steps),
            result.makespan,
        )
        return result

    def _run_instrumented(self) -> ScheduleResult:
        algorithm = self.problem.algorithm
        schedule = Schedule(self.problem, self.semantics)
        scheduled: set = set()
        candidates = {
            op for op in algorithm.operation_names if not algorithm.predecessors(op)
        }
        steps: List[StepRecord] = []

        while candidates:
            # mSn.1 -- evaluate every candidate on every capable processor.
            kept_per_op: Dict[str, List[PlacementEvaluation]] = {}
            for op in sorted(candidates):
                kept_per_op[op] = self._keep_best(op)

            # mSn.2 -- the most urgent operation: the one whose kept
            # set contains the largest pressure.  Ties are broken by
            # operation name by default, or randomly when a seed was
            # given (the paper draws randomly; DESIGN.md
            # reconstruction 2).
            def urgency(op: str) -> float:
                return max(e.pressure for e in kept_per_op[op])

            ordered = sorted(candidates)
            top = max(urgency(op) for op in ordered)
            tied = [op for op in ordered if urgency(op) >= top - self.TIE_EPSILON]
            selected = self.rng.choice(tied) if self.rng else tied[0]

            # mSn.3 -- commit the operation and its comms.
            with self.obs.span("scheduler.step", op=selected):
                placements, comms = self.commit(selected, kept_per_op[selected])
            if self.eval_cache is not None:
                # Invalidate exactly the cached evaluations that read a
                # processor or link frontier this commit moved; the
                # selected op itself is retired.
                self.eval_cache.invalidate(commit_writes(placements, comms))
                self.eval_cache.drop_op(selected)
            for placement in placements:
                schedule.add_replica(placement)
            for slot in comms:
                schedule.add_comm(slot)
            steps.append(
                StepRecord(
                    index=len(steps) + 1,
                    op=selected,
                    urgency=urgency(selected),
                    kept=tuple(kept_per_op[selected]),
                    placements=tuple(placements),
                    comms=tuple(comms),
                )
            )
            self._record_decision(
                steps[-1], kept_per_op, tied, placements
            )
            LOGGER.debug(
                "step %d: %s -> %s (urgency %g, %d comm slot(s))",
                len(steps), selected,
                ",".join(p.processor for p in placements),
                urgency(selected), len(comms),
            )

            # mSn.4 -- update the candidate list.
            scheduled.add(selected)
            candidates.discard(selected)
            for succ in algorithm.successors(selected):
                if succ in scheduled:
                    continue
                if all(p in scheduled for p in algorithm.predecessors(succ)):
                    candidates.add(succ)

        if len(scheduled) != len(algorithm):
            missing = sorted(set(algorithm.operation_names) - scheduled)
            raise InfeasibleProblemError(
                f"scheduling stalled; unreachable operations: {missing}"
            )

        self.obs.count("scheduler.steps", len(steps))
        if self.eval_cache is not None:
            cache = self.eval_cache
            self.obs.count("evalcache.hits", cache.hits)
            self.obs.count("evalcache.misses", cache.misses)
            self.obs.count("evalcache.invalidated", cache.invalidated)
        self.finalize(schedule)
        #: The decision log rides on the schedule so downstream
        #: consumers (FT301, ``repro explain``) need no side channel.
        schedule.decision_log = self.decisions
        return ScheduleResult(
            schedule=schedule.freeze(),
            steps=steps,
            prepass=self.prepass,
            decisions=self.decisions,
        )

    # ------------------------------------------------------------------
    # Decision recording (repro.obs)
    # ------------------------------------------------------------------
    def _record_decision(
        self,
        step: StepRecord,
        kept_per_op: Dict[str, List[PlacementEvaluation]],
        tied: List[str],
        placements: Sequence[ReplicaPlacement],
    ) -> None:
        """Append the structured record of one heuristic step.

        A record is rebuilt only for an evaluation that is new since
        the last step or whose ``kept`` flag changed; records are
        immutable, so the others are shared with the previous step.
        """
        previous = self._candidate_records
        current: Dict[int, Tuple[PlacementEvaluation, CandidateEvaluation]] = {}
        candidates: Dict[str, Tuple[CandidateEvaluation, ...]] = {}
        for op, kept in kept_per_op.items():
            kept_procs = {e.processor for e in kept}
            records = []
            for e in self._evaluated[op]:
                is_kept = e.processor in kept_procs
                entry = previous.get(id(e))
                if entry is None or entry[1].kept is not is_kept:
                    entry = (
                        e,
                        CandidateEvaluation(
                            op=e.op,
                            processor=e.processor,
                            start=e.start,
                            end=e.end,
                            pressure=e.pressure,
                            kept=is_kept,
                        ),
                    )
                current[id(e)] = entry
                records.append(entry[1])
            candidates[op] = tuple(records)
        self._candidate_records = current
        self.decisions.append(
            DecisionRecord(
                step=step.index,
                chosen=step.op,
                urgency=step.urgency,
                candidates=candidates,
                main=placements[0].processor,
                replicas=tuple(p.processor for p in placements),
                selection_tied=tuple(tied) if len(tied) > 1 else (),
                placement_tie_groups=self._boundary_ties(
                    self._evaluated[step.op]
                ),
                tie_break=self.decisions.tie_break,
            )
        )

    def _boundary_ties(
        self, evaluations: Sequence[PlacementEvaluation]
    ) -> Tuple[Tuple[str, ...], ...]:
        """Pressure ties straddling the kept/dropped boundary.

        When the ``degree``-th and ``degree+1``-th best pressures tie
        (within :data:`TIE_EPSILON`), the membership of the kept set
        itself was decided arbitrarily — the situation FT301 flags.
        """
        degree = self.replication_degree
        if len(evaluations) <= degree:
            return ()
        boundary = evaluations[degree - 1].pressure
        group = tuple(
            e.processor
            for e in evaluations
            if abs(e.pressure - boundary) <= self.TIE_EPSILON
        )
        crosses = any(
            abs(e.pressure - boundary) <= self.TIE_EPSILON
            for e in evaluations[degree:]
        )
        return (group,) if crosses and len(group) > 1 else ()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _keep_best(self, op: str) -> List[PlacementEvaluation]:
        """Evaluate ``op`` everywhere; keep the K + 1 best placements."""
        capable = self.problem.allowed_processors(op)
        degree = self.replication_degree
        if len(capable) < degree:
            raise InfeasibleProblemError(
                f"operation {op!r} can run on only {len(capable)} "
                f"processor(s); K={self.problem.failures} requires {degree}"
            )
        evaluations = [self._evaluate_cached(op, proc) for proc in capable]
        if self.rng is not None:
            # Random tie-break: placements whose pressures tie (within
            # TIE_EPSILON) are ordered randomly, everything else keeps
            # the pressure ordering.  Sorting by the exact pressure
            # with a random secondary key achieves this because tied
            # pressures compare equal in the paper's tables.
            jitter = {e.processor: self.rng.random() for e in evaluations}
            evaluations.sort(key=lambda e: (e.pressure, jitter[e.processor]))
        else:
            evaluations.sort(key=lambda e: e.sort_key)
        self._evaluated[op] = evaluations
        return evaluations[:degree]

    def _evaluate_cached(self, op: str, proc: str) -> PlacementEvaluation:
        """One placement evaluation, served from the cache when valid.

        On a miss, the evaluation runs on the committed state and
        reports the links whose frontiers it read; the cache stores it
        against ``("proc", proc)`` plus those links.  The processor key
        also covers policy hooks that keep private per-processor
        bookkeeping (the insertion variants' busy-interval lists),
        which change exactly when a placement lands on ``proc``.

        ``pressure.evals`` counts only the evaluations actually
        computed — with the cache disabled that is every lookup, so the
        counter remains the exact work measure the benchmarks track.
        """
        cache = self.eval_cache
        if cache is None:
            self.obs.count("pressure.evals")
            return self.evaluate_placement(op, proc, set())
        cached = cache.lookup(op, proc)
        if cached is not None:
            return cached
        links: Set[str] = set()
        evaluation = self.evaluate_placement(op, proc, links)
        self.obs.count("pressure.evals")
        reads = [("proc", proc)]
        reads.extend(("link", link) for link in links)
        cache.store(op, proc, evaluation, reads)
        return evaluation

    def input_sources(self, op: str) -> List[Tuple[Tuple[str, str], str]]:
        """The (dependency, predecessor) pairs feeding ``op``, sorted."""
        algorithm = self.problem.algorithm
        return [((pred, op), pred) for pred in algorithm.predecessors(op)]

    # ------------------------------------------------------------------
    # Placement policy hooks (overridden by the insertion variants)
    # ------------------------------------------------------------------
    def earliest_start(self, proc: str, ready: float, duration: float) -> float:
        """Earliest date ``proc`` can run a ``duration``-long operation
        whose inputs are ready at ``ready``.

        The SynDEx heuristics are *append-only*: the computation unit's
        frontier only moves forward.  The insertion variants
        (:mod:`repro.core.insertion`) override this to reuse idle gaps.
        """
        return max(self.state.proc_free.get(proc, 0.0), ready)

    def note_placement(self, placement: ReplicaPlacement) -> None:
        """Hook called after each committed placement (for bookkeeping
        beyond :class:`TimelineState` — e.g. the insertion variants'
        busy-interval lists)."""

    def execution_duration(self, op: str, proc: str) -> float:
        """Shorthand for the constraints lookup."""
        return self.problem.execution.duration(op, proc)


# ----------------------------------------------------------------------
# Tie-break exploration
# ----------------------------------------------------------------------

def _run_one_seed(payload) -> ScheduleResult:
    """Worker body of the parallel fan-out (module-level: picklable).

    Each worker task carries its *own* seed from the caller's seed
    list, so the scheduler's tie-break RNG is derived from (base seed
    list, worker index) inside the worker — no worker ever consumes
    another worker's random draws, which is what makes ``jobs=N``
    bit-identical to a serial run for any N.
    """
    scheduler_class, problem, estimate_mode, seed, kwargs = payload
    return scheduler_class(
        problem, estimate_mode=estimate_mode, seed=seed, **kwargs
    ).run()


def explore_seeds(
    scheduler_class,
    problem: Problem,
    seeds: Sequence[Optional[int]],
    estimate_mode: str = "average",
    jobs: int = 1,
    **scheduler_kwargs,
) -> List[ScheduleResult]:
    """Run ``scheduler_class`` once per seed and return all results.

    The paper's heuristics break pressure ties randomly, so a single
    run is one sample of a small family of schedules.  Passing
    ``None`` among the seeds includes the deterministic
    (name-ordered) run.

    ``jobs > 1`` fans the runs out over a process pool.  Results keep
    the seed order and each run constructs its RNG from its own seed
    inside the worker, so the returned list — decision logs included —
    is identical whatever ``jobs`` is.  Obs counters emitted inside
    worker processes are not aggregated back into the parent's
    registry (the ``scheduler.best_over_seeds`` span still is).
    """
    if jobs > 1 and len(seeds) > 1:
        payloads = [
            (scheduler_class, problem, estimate_mode, seed, scheduler_kwargs)
            for seed in seeds
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            return list(pool.map(_run_one_seed, payloads))
    return [
        scheduler_class(
            problem, estimate_mode=estimate_mode, seed=seed, **scheduler_kwargs
        ).run()
        for seed in seeds
    ]


def best_over_seeds(
    scheduler_class,
    problem: Problem,
    attempts: int = 32,
    estimate_mode: str = "average",
    jobs: int = 1,
    **scheduler_kwargs,
) -> ScheduleResult:
    """The makespan-best schedule over the deterministic run plus
    ``attempts`` seeded runs.

    This mirrors how an adequation tool is used in practice: the
    heuristic is cheap, so one explores the tie-break space and keeps
    the best real-time performance.  Ties on makespan keep the
    earliest run (deterministic first), making the result reproducible
    — including under ``jobs > 1``, since :func:`explore_seeds`
    preserves seed order and ``min`` is stable.
    """
    seeds: List[Optional[int]] = [None] + list(range(attempts))
    with get_instrumentation().span(
        "scheduler.best_over_seeds",
        method=scheduler_class.__name__,
        attempts=attempts,
    ):
        results = explore_seeds(
            scheduler_class, problem, seeds, estimate_mode,
            jobs=jobs, **scheduler_kwargs,
        )
    best = min(results, key=lambda result: result.makespan)
    LOGGER.info(
        "best_over_seeds(%s): kept makespan %g over %d run(s)",
        scheduler_class.__name__, best.makespan, len(results),
    )
    return best
