"""The static delivery verifier: exhaustive ≤K-crash proof or refutation.

Two ideas make the proof both *sound* and *finite*:

1. **Guard-recording abstract interpretation.**  One evaluation runs
   the generated executive's own protocol under concrete crash dates
   (planned time-triggered sends, timeout-ladder watchdogs with
   one-shot stand-down, link serialization, store-and-forward relays:
   :mod:`repro.sim.protocol`).  Every branch that
   depends on a crash date goes through :meth:`_AbstractRun.alive_at`,
   which records the compared date as a *guard*.  The run's verdict is
   therefore valid for every crash-date assignment in the maximal
   region around the representative in which no guard flips.

2. **Region refinement.**  For each crash subset S (|S| ≤ K) the
   verifier walks the protocol's decision tree over the crash-date
   space ``[0, ∞)^S`` depth first, one run per leaf.  A run keeps, for
   each crashed processor, the bounds its earlier answers put on the
   crash date; a question they already decide is answered from them.
   Only an *open* question is recorded (a decision), and each one
   splits the run's cell in two: the run goes on in the half that holds
   its representative (the cell's lower corner, which always answers
   "crashed"), and the other half is pushed with the latest checkpoint
   taken before the question, to resume there instead of date 0
   (``proof.steps`` counts executed kernel steps).
   The half left at the end is the run's leaf, whose verdict holds on
   all of it — the "(processor, window)-class collapse" of the static
   event windows, made exact: one run typically covers many window
   classes (counted as ``proof.classes_collapsed``), and derived dates
   (e.g. a takeover frame completing mid-window) split windows that
   the static boundaries cannot see.  The leaves partition the space,
   so ``proof.evaluations`` counts runs.

Subset-lattice pruning is sound because refutation is monotone in the
crash *set*: if S fails for dates T, then S ∪ {q} fails for T
extended with q crashing after all activity (identical trajectory).
Proven-dead subsets therefore retire all their supersets
(``proof.pruned``).

Each run is the prover's world of :class:`repro.sim.protocol.Protocol`,
the process bodies and frame model the simulated executive runs too,
over the compiled :class:`~repro.lint.proof.automaton.DeliveryAutomaton`
and the discrete-event kernel of :mod:`repro.sim.engine`.  The world
answers aliveness by recording guards and keeps the delivery facts of
the proof artifact; the executive, the fault model and the trace the
campaign simulates are not imported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from ...core.schedule import Schedule
from ...obs import get_instrumentation
from ...sim.protocol import Protocol
from .automaton import DeliveryAutomaton, compile_automaton
from .model import (
    ClassRegion,
    Counterexample,
    DependencyWitness,
    ProofResult,
    render_class,
    window_index,
)

__all__ = ["prove_delivery", "check_scenario", "ScenarioCheck", "RunOutcome",
           "run_outcome"]

DependencyKey = Tuple[str, str]


# ----------------------------------------------------------------------
# One abstract run: concrete crash dates in, verdict + guards out
# ----------------------------------------------------------------------
class RunOutcome(NamedTuple):
    """What a finished run decided, as a refuted leaf keeps it: the
    starved ``(dep, destination)`` pairs, the first observe
    ``(sender, date)`` of each starved dependency, the operations
    produced."""

    missing_outputs: Tuple[str, ...]
    undelivered: Tuple[Tuple[DependencyKey, str], ...]
    observed_cause: Dict[DependencyKey, Tuple[str, float]]
    produced: FrozenSet[str]

    @property
    def ok(self) -> bool:
        return not self.missing_outputs


class _AbstractRun(Protocol):
    """Run the protocol under permanent crash dates ``crashes``.

    The prover's world of :class:`~repro.sim.protocol.Protocol`: it
    records every comparison of a crash time against a date that its
    earlier answers leave open, in the order asked (the *decisions*;
    their dates are the run's *guards*), plus the delivery bookkeeping
    the proof artifact and the FT4xx rules need.

    The whole state copies in microseconds (:meth:`checkpoint`), and
    :meth:`restore` resumes it for crash dates that answer its
    decisions the same way.
    """

    #: The containers a checkpoint copies (frames carry no values, so
    #: the protocol's ``values`` stays empty and is not copied).
    _COPIED = ("decisions", "bounds", "busy", "flags", "data", "produced",
               "observed", "outputs_done", "delivery_source")

    def __init__(
        self,
        auto: DeliveryAutomaton,
        crashes: Dict[str, float],
        known_failed: Iterable[str] = (),
    ) -> None:
        super().__init__(
            auto.schedule,
            auto.detection,
            auto.snoop_recovery,
            dict.fromkeys(auto.processors, frozenset(known_failed)),
        )
        self.auto = auto
        self.crashes = crashes
        #: ``(proc, date) -> date < crashes[proc]``, in asked order.
        self.decisions: Dict[Tuple[str, float], bool] = {}
        #: ``proc -> (lo, hi)``: the decisions so far put its crash date
        #: in ``(lo, hi]``.
        self.bounds: Dict[str, Tuple[float, float]] = dict.fromkeys(
            crashes, (-math.inf, math.inf)
        )
        self.halt_from = math.inf  # see execute()
        # Bookkeeping ---------------------------------------------------
        self.outputs_done: Set[str] = set()
        self.delivery_source: Dict[
            Tuple[DependencyKey, str], Tuple[str, str, int]
        ] = {}
        self.start()

    def restore(self, checkpoint: tuple, crashes: Dict[str, float]) -> None:
        """Go back to ``checkpoint`` (it stays valid) under ``crashes``."""
        super().restore(checkpoint)
        self.crashes = crashes

    def execute(self, checkpoints_from: float = math.inf) -> List[tuple]:
        """Run to the end; return ``(n, checkpoint)`` pairs, one before
        the first kernel step after each step that recorded a decision
        once ``n >= checkpoints_from`` decisions are recorded."""
        self.halt_from = checkpoints_from
        taken = []
        self.sim.run()
        while self.sim.pending:
            taken.append((len(self.decisions), self.checkpoint()))
            self.sim.run()
        return taken

    # -- the protocol's questions (an open one records a decision) -----
    def alive_at(self, proc: str, time: float) -> bool:
        """Is ``proc`` up at ``time``?"""
        at = self.crashes.get(proc)
        if at is None:
            return True
        lo, hi = self.bounds[proc]
        if time <= lo:
            return True
        if time >= hi:
            return False
        alive = time < at
        self.bounds[proc] = (time, hi) if alive else (lo, time)
        self.decisions[(proc, time)] = alive
        if len(self.decisions) >= self.halt_from:
            self.sim.halt()
        return alive

    def _completes(self, row, _start: float, end: float) -> bool:
        # Fail-stop: an execution ending at ``end`` survives exactly
        # when its host is up at ``end``.
        return self.alive_at(row.processor, end)

    def _transmits(self, frame: tuple, _start: float, end: float) -> bool:
        return self.alive_at(frame[1], end)

    # -- bookkeeping ----------------------------------------------------
    def _deliver(self, dep, dest, sender, takeover, _payload) -> None:
        if self.data.get((dep, dest), ()) is not None:
            kind = "takeover" if takeover else "planned"
            self.delivery_source[(dep, dest)] = (
                kind,
                sender,
                self.auto.rank.get((dep[0], sender), 0),
            )
            self.sim.fire(self.data, (dep, dest))

    def _output(self, op: str, _proc: str) -> None:
        self.outputs_done.add(op)

    # -- verdict --------------------------------------------------------
    @property
    def missing_outputs(self) -> Tuple[str, ...]:
        return tuple(op for op in self.plan.outputs if op not in self.outputs_done)

    def witness_depth(self) -> int:
        return max(
            (rank + 1 if kind == "takeover" else 1
             for kind, _sender, rank in self.delivery_source.values()),
            default=0,
        )

    def outcome(self) -> RunOutcome:
        # A starved pair: a *surviving* consumer replica never received
        # the data it depends on.
        undelivered = tuple(
            (dep, dest)
            for dep, dests in sorted(self.plan.destinations.items())
            for dest in dests
            if dest not in self.crashes and self.data.get((dep, dest), ()) is not None
        )
        deps = {dep for dep, _dest in undelivered}
        causes = {d: c for d, c in self.observed.items() if d in deps}
        produced = (op for (op, _), w in self.produced.items() if w is None)
        return RunOutcome(
            self.missing_outputs,
            undelivered,
            causes,
            frozenset(produced),
        )


def run_outcome(
    auto: DeliveryAutomaton,
    crashes: Dict[str, float],
    known_failed: Iterable[str] = (),
) -> RunOutcome:
    """One run under concrete crash dates (``0.0``: dead from the
    start), with ``known_failed`` flagged from the start."""
    run = _AbstractRun(auto, dict(crashes), known_failed)
    run.execute()
    return run.outcome()


# ----------------------------------------------------------------------
# Region sweep over one crash subset
# ----------------------------------------------------------------------
@dataclass
class _SubsetResult:
    subset: Tuple[str, ...]
    status: str  # "safe" | "refuted" | "unproven"
    evaluations: int = 0  # runs, one per leaf of the decision tree
    steps: int = 0  # kernel steps the runs executed
    refuted_cells: List[Tuple[tuple, RunOutcome]] = field(default_factory=list)
    classes_collapsed: int = 0
    witness_depth: int = 0
    chains: Dict[DependencyKey, Dict[Tuple[str, str, int], int]] = field(
        default_factory=dict
    )


def _cell_windows(boundaries, lo: float, hi: float) -> Tuple[int, int]:
    """Inclusive (first, last) static window index overlapped by [lo, hi)."""
    first = window_index(boundaries, lo)
    if math.isinf(hi):
        return first, len(boundaries) - 1
    inner = max(lo, math.nextafter(hi, -math.inf))
    return first, window_index(boundaries, inner)


def _sweep_subset(
    auto: DeliveryAutomaton,
    subset: Tuple[str, ...],
    budget: int,
    until_refuted: bool = False,
) -> _SubsetResult:
    result = _SubsetResult(subset=subset, status="safe")
    axis = {proc: i for i, proc in enumerate(subset)}
    run = _AbstractRun(auto, dict.fromkeys(subset, 0.0))
    # Depth first over the decision tree.  An entry is a cell (one
    # ``[lo, hi)`` crash interval per processor), the number ``j`` of
    # decisions on its path (the cell is the "alive" side of the
    # ``j``-th) and a checkpoint of a run on that path taken before the
    # ``j``-th was asked.  Every crash vector in the cell answers those
    # ``j`` alike, and every later decision is open in it.
    stack: List[tuple] = [
        (tuple((0.0, math.inf) for _ in subset), run.checkpoint(), 0)
    ]
    while stack:
        if result.evaluations >= budget:
            result.status = "unproven"
            break
        cell, checkpoint, j = stack.pop()
        result.evaluations += 1
        run.restore(checkpoint, {p: lo for p, (lo, _hi) in zip(subset, cell)})
        taken = [(0, checkpoint), *run.execute(checkpoints_from=j)]
        # The lower corner answers "crashed" to each open decision after
        # the j-th: keep the half below its date, push the half above
        # with the latest checkpoint taken before it was asked.
        cell, latest = list(cell), 0
        for k, (proc, date) in enumerate(
            itertools.islice(run.decisions, j, None), j + 1
        ):
            while latest + 1 < len(taken) and taken[latest + 1][0] < k:
                latest += 1
            i = axis[proc]
            lo, hi = cell[i]
            cut = math.nextafter(date, math.inf)
            cell[i] = (cut, hi)
            stack.append((tuple(cell), taken[latest][1], k))
            cell[i] = (lo, cut)
        _account_leaf(result, tuple(cell), run)
        if until_refuted and result.refuted_cells:
            break
    result.steps = run.sim.steps
    return result


def _account_leaf(result: _SubsetResult, cell: tuple, run: _AbstractRun) -> None:
    """Add a finished run's leaf ``cell`` to ``result``: the
    (processor, window)-classes it decided (beyond the first, collapsed
    ones), its verdict and its delivery chains."""
    covered = 1
    for lo, hi in cell:
        first, last = _cell_windows(run.auto.boundaries, lo, hi)
        covered *= last - first + 1
    result.classes_collapsed += covered - 1
    if run.missing_outputs:
        result.status = "refuted"
        result.refuted_cells.append((cell, run.outcome()))
    else:
        result.witness_depth = max(result.witness_depth, run.witness_depth())
        for (dep, _dest), chain in run.delivery_source.items():
            per_dep = result.chains.setdefault(dep, {})
            per_dep[chain] = per_dep.get(chain, 0) + 1


# ----------------------------------------------------------------------
# Monotone dead-subset certificate
# ----------------------------------------------------------------------
def _reaches_output(auto: DeliveryAutomaton) -> Set[str]:
    reaches = set(auto.plan.outputs)
    changed = True
    while changed:
        changed = False
        for src, dst in auto.plan.destinations:  # every dependency key
            if dst in reaches and src not in reaches:
                reaches.add(src)
                changed = True
    return reaches


def _dead_certificate(
    auto: DeliveryAutomaton, subset: Tuple[str, ...], reaches: Set[str]
) -> Optional[str]:
    """An operation whose *every* replica host is in ``subset`` and
    which an expected output depends on: crashing the whole subset at
    t=0 then provably starves that output, for this subset and every
    superset (the monotone certificate behind lattice pruning)."""
    crashed = set(subset)
    for op in auto.operations:
        hosts = auto.replicas[op]
        if hosts and set(hosts) <= crashed and op in reaches:
            return op
    return None


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
def prove_delivery(
    schedule: Schedule,
    detection: Optional[str] = None,
    max_evals_per_subset: int = 8000,
    max_failures: Optional[int] = None,
    probe_beyond: bool = True,
) -> ProofResult:
    """Prove (or refute) delivery under every ≤K crash subset.

    Returns a :class:`~repro.lint.proof.model.ProofResult` whose
    verdict is ``SAFE`` (proof artifact with per-dependency witness
    chains), ``UNSAFE`` (with a concrete, campaign-replayable
    counterexample), or ``UNPROVEN`` (the per-subset evaluation budget
    was exhausted before covering the region space — never claimed as
    either proof or refutation).
    """
    obs = get_instrumentation()
    with obs.span("proof.compile"):
        auto = compile_automaton(schedule, detection=detection)
    failures = auto.failures if max_failures is None else max_failures
    with obs.span(
        "proof.verify",
        semantics=auto.semantics.value,
        processors=len(auto.processors),
        failures=failures,
    ):
        result = _prove(auto, failures, max_evals_per_subset, obs)
    if (
        probe_beyond
        and result.verdict == "SAFE"
        and max_failures is None
        and failures + 1 < len(auto.processors)
        and math.comb(len(auto.processors), failures + 1) <= 64
    ):
        # Only a SAFE probe changes the result: stop at its first
        # refutation.
        with obs.span("proof.probe", failures=failures + 1):
            beyond = _prove(
                auto,
                failures + 1,
                max_evals_per_subset,
                obs,
                sizes=(failures + 1,),
                until_refuted=True,
            )
        if beyond.verdict == "SAFE":
            result.beyond = {
                "certified_failures": failures,
                "proven_failures": failures + 1,
            }
    obs.observe("proof.witness_depth", float(result.witness_depth))
    return result


def _prove(
    auto: DeliveryAutomaton,
    failures: int,
    budget: int,
    obs,
    sizes: Optional[Tuple[int, ...]] = None,
    until_refuted: bool = False,
) -> ProofResult:
    """Sweep every subset of the given sizes (default ``0..failures``);
    ``until_refuted`` stops at the first refutation."""
    processors = auto.processors
    reaches = _reaches_output(auto)
    dead_roots: List[frozenset] = []
    subsets_checked = 0
    pruned = 0
    evaluations = 0
    steps = 0
    classes_collapsed = 0
    witness_depth = 0
    refuted_regions: List[ClassRegion] = []
    counterexamples: List[Counterexample] = []
    never_rearms: Dict[DependencyKey, dict] = {}
    unproven_subsets: List[Tuple[str, ...]] = []
    chains: Dict[DependencyKey, Dict[Tuple[str, str, int], int]] = {}

    all_sizes = sizes if sizes is not None else tuple(range(failures + 1))
    for combo in itertools.chain.from_iterable(
        itertools.combinations(processors, size) for size in all_sizes
    ):
        if until_refuted and counterexamples:
            break
        subset = frozenset(combo)
        if any(root <= subset for root in dead_roots):
            pruned += 1
            continue
        subsets_checked += 1
        dead_op = _dead_certificate(auto, combo, reaches)
        if dead_op is not None:
            dead_roots.append(subset)
            region = ClassRegion(
                windows={proc: (0, 0) for proc in combo},
                subset=combo,
            )
            refuted_regions.append(region)
            counterexamples.append(
                _certificate_counterexample(auto, combo, dead_op)
            )
            continue
        swept = _sweep_subset(auto, combo, budget, until_refuted)
        evaluations += swept.evaluations
        steps += swept.steps
        classes_collapsed += swept.classes_collapsed
        witness_depth = max(witness_depth, swept.witness_depth)
        for dep, per_chain in swept.chains.items():
            chains.setdefault(dep, {})
            for chain, count in per_chain.items():
                chains[dep][chain] = chains[dep].get(chain, 0) + count
        if swept.status == "unproven":
            unproven_subsets.append(combo)
        elif swept.status == "refuted":
            dead_roots.append(subset)
            for cell, outcome in swept.refuted_cells:
                windows = {}
                for proc, (lo, hi) in zip(combo, cell):
                    windows[proc] = _cell_windows(auto.boundaries, lo, hi)
                refuted_regions.append(
                    ClassRegion(windows=windows, subset=combo)
                )
                _collect_never_rearms(outcome, never_rearms)
            cell, outcome = swept.refuted_cells[0]
            crashes = {proc: lo for proc, (lo, _hi) in zip(combo, cell)}
            counterexamples.append(_counterexample(auto, combo, crashes, outcome))

    obs.count("proof.subsets_checked", subsets_checked)
    obs.count("proof.pruned", pruned)
    obs.count("proof.evaluations", evaluations)
    obs.count("proof.steps", steps)
    obs.count("proof.classes_collapsed", classes_collapsed)

    if counterexamples:
        verdict = "UNSAFE"
    elif unproven_subsets:
        verdict = "UNPROVEN"
    else:
        verdict = "SAFE"
    counterexamples.sort(key=lambda cx: (len(cx.subset), cx.subset, cx.label))
    return ProofResult(
        verdict=verdict,
        semantics=auto.semantics.value,
        detection=auto.detection,
        processors=processors,
        failures=failures,
        boundaries=auto.boundaries,
        subsets_checked=subsets_checked,
        subsets_pruned=pruned,
        evaluations=evaluations,
        classes_collapsed=classes_collapsed,
        witness_depth=witness_depth,
        dependencies=_dependency_witnesses(auto, chains, counterexamples),
        refuted_regions=refuted_regions,
        counterexamples=counterexamples,
        never_rearms=sorted(
            never_rearms.values(), key=lambda r: r["dependency"]
        ),
        unproven_subsets=tuple(unproven_subsets),
        automaton=auto.summary(),
    )


def _collect_never_rearms(outcome: RunOutcome, never_rearms) -> None:
    for dep in sorted({dep for dep, _dest in outcome.undelivered}):
        cause = outcome.observed_cause.get(dep)
        if cause is None:
            continue
        # The one-shot observe fired, delivery still failed, and no
        # rung can ever re-arm: the ladder is permanently retired.
        never_rearms.setdefault(
            dep,
            {
                "dependency": "%s -> %s" % dep,
                "observed_by": cause[0],
                "observed_at": round(cause[1], 6),
            },
        )


def _dependency_witnesses(auto, chains, counterexamples) -> List[DependencyWitness]:
    refuted_deps = set()
    for cx in counterexamples:
        refuted_deps.update(cx.undelivered_deps())
    witnesses = []
    for dep, dests in sorted(auto.plan.destinations.items()):
        label = "%s -> %s" % dep
        if not dests:
            witnesses.append(
                DependencyWitness(dependency=label, status="local", chains=())
            )
            continue
        status = "refuted" if label in refuted_deps else "proven"
        per_chain = chains.get(dep, {})
        witnesses.append(
            DependencyWitness(
                dependency=label,
                status=status,
                chains=tuple(
                    {
                        "kind": kind,
                        "sender": sender,
                        "rank": rank,
                        "regions": count,
                    }
                    for (kind, sender, rank), count in sorted(per_chain.items())
                ),
            )
        )
    return witnesses


def _certificate_counterexample(
    auto: DeliveryAutomaton, subset, dead_op: str
) -> Counterexample:
    crashes = {proc: 0.0 for proc in subset}
    cx = _counterexample(auto, subset, crashes, run_outcome(auto, crashes))
    cx.narrative = (
        "every replica of %r is hosted on the crashed set %s: production "
        "is impossible from t=0, so this subset (and every superset) is "
        "provably dead" % (dead_op, sorted(subset))
    )
    return cx


def _class_key(auto: DeliveryAutomaton, crashes: Dict[str, float]) -> tuple:
    return tuple(
        sorted((p, window_index(auto.boundaries, at)) for p, at in crashes.items())
    )


def _starved(outcome: RunOutcome) -> Tuple[str, ...]:
    return tuple("%s -> %s @ %s" % (*dep, dest) for dep, dest in outcome.undelivered)


def _counterexample(
    auto: DeliveryAutomaton, subset, crashes: Dict[str, float], outcome: RunOutcome
) -> Counterexample:
    key = _class_key(auto, crashes)
    narrative_bits = [
        "%s -> %s never delivered to surviving replica on %s"
        % (dep[0], dep[1], dest)
        for dep, dest in outcome.undelivered
    ]
    return Counterexample(
        subset=tuple(sorted(subset)),
        crashes={proc: crashes[proc] for proc in sorted(crashes)},
        class_key=key,
        label=render_class(key),
        missing_outputs=outcome.missing_outputs,
        undelivered=_starved(outcome),
        narrative="; ".join(narrative_bits),
    )


# ----------------------------------------------------------------------
# Single-scenario static check (reproducer interop)
# ----------------------------------------------------------------------
@dataclass
class ScenarioCheck:
    """Static verdict for one concrete crash scenario."""

    refuted: bool
    class_key: tuple
    label: str
    missing_outputs: Tuple[str, ...]
    undelivered: Tuple[str, ...]
    counterexample: Optional[Counterexample]


def check_scenario(
    schedule: Schedule,
    crashes: Dict[str, float],
    known_failed: Iterable[str] = (),
    detection: Optional[str] = None,
) -> ScenarioCheck:
    """Statically decide one concrete crash assignment.

    This is the ``repro prove --repro`` path: the committed
    reproducer's exact crash dates are interpreted over the automaton
    (on :mod:`repro.sim.engine`, not on the simulated executive),
    and — when delivery fails — the returned counterexample pins the
    reproducer's own (processor, window)-class.
    """
    auto = compile_automaton(schedule, detection=detection)
    outcome = run_outcome(auto, crashes, known_failed=known_failed)
    cx = None
    if not outcome.ok:
        cx = _counterexample(auto, tuple(sorted(crashes)), dict(crashes), outcome)
    key = _class_key(auto, crashes)
    return ScenarioCheck(
        refuted=not outcome.ok,
        class_key=key,
        label=render_class(key),
        missing_outputs=outcome.missing_outputs,
        undelivered=_starved(outcome),
        counterexample=cx,
    )
