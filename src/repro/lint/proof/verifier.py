"""The static delivery verifier: exhaustive ≤K-crash proof or refutation.

Two ideas make the proof both *sound* and *finite*:

1. **Guard-recording abstract interpretation.**  One evaluation of the
   delivery automaton under concrete crash dates follows exactly the
   branch structure of the generated executive (planned time-triggered
   sends, timeout-ladder watchdogs with one-shot stand-down, link
   serialization, store-and-forward relays).  Every branch that
   depends on a crash date goes through :meth:`_AbstractRun._alive_at`
   / :meth:`_AbstractRun._alive_through`, which record the compared
   date as a *guard*.  The run's verdict is therefore valid for every
   crash-date assignment in the maximal region around the
   representative in which no guard flips.

2. **Region refinement.**  For each crash subset S (|S| ≤ K) the
   verifier partitions the crash-date space ``[0, ∞)^S`` along the
   recorded guards, evaluating one representative per region until the
   whole space is covered — the "(processor, window)-class collapse"
   of the static event windows, made exact: one evaluation typically
   covers many window classes (counted as ``proof.classes_collapsed``),
   and derived dates (e.g. a takeover frame completing mid-window)
   split windows that the static boundaries cannot see.  A
   representative that answers every decision of an earlier run in the
   same subset the same way replays that run from a decision trie
   instead of executing it again (``proof.replayed``).

Subset-lattice pruning is sound because refutation is monotone in the
crash *set*: if S fails for dates T, then S ∪ {q} fails for T
extended with q crashing after all activity (identical trajectory).
Proven-dead subsets therefore retire all their supersets
(``proof.pruned``).

Each run interprets the compiled
:class:`~repro.lint.proof.automaton.DeliveryAutomaton` on the
discrete-event kernel of :mod:`repro.sim.engine`, and nothing else in
:mod:`repro.sim` is imported: the executive, network and fault model
the campaign simulates stay out of the prover's reading of the
protocol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...core.executive_plan import DEADLINE_SLACK
from ...core.schedule import Schedule, ScheduleSemantics
from ...obs import get_instrumentation
from ...sim.engine import Delay, LazyEvents, Simulator, Wait, WaitAny
from .automaton import DeliveryAutomaton, compile_automaton
from .model import (
    ClassRegion,
    Counterexample,
    DependencyWitness,
    ProofResult,
    render_class,
    window_index,
)

__all__ = ["prove_delivery", "check_scenario", "ScenarioCheck"]

DependencyKey = Tuple[str, str]


# ----------------------------------------------------------------------
# One abstract run: concrete crash dates in, verdict + guards out
# ----------------------------------------------------------------------
@dataclass
class _Race:
    """A takeover frame that stood watchers down and was then lost."""

    dep: DependencyKey
    dispatcher: str
    dispatch_time: float
    frame_end: float
    stood_down: Tuple[Tuple[str, int], ...] = ()


class _AbstractRun:
    """Interpret the automaton under permanent crash dates ``crashes``.

    Records every comparison of a crash time against a date, in the
    order first asked (the *decisions*; their dates are the run's
    *guards*), plus the delivery bookkeeping the proof artifact and the
    FT4xx rules need.
    """

    def __init__(
        self,
        auto: DeliveryAutomaton,
        crashes: Dict[str, float],
        known_failed: Iterable[str] = (),
    ) -> None:
        self.auto = auto
        self.crashes = crashes
        #: ``(proc, date) -> date < crashes[proc]``, in first-asked order.
        self.decisions: Dict[Tuple[str, float], bool] = {}
        self.sim = Simulator()
        self.busy: Dict[str, float] = {link: 0.0 for link in auto.is_bus}
        self.flags: Dict[str, Set[str]] = {
            proc: set(known_failed) for proc in auto.processors
        }
        #: ``(dep, proc)`` arrivals, ``(op, proc)`` productions and
        #: per-dependency observes, each created on first use.
        self.data = LazyEvents()
        self.produced = LazyEvents()
        self.observed = LazyEvents()
        # Bookkeeping ---------------------------------------------------
        self.outputs_done: Set[str] = set()
        self.delivery_source: Dict[
            Tuple[DependencyKey, str], Tuple[str, str, int]
        ] = {}
        self.observed_cause: Dict[DependencyKey, Tuple[str, str, float]] = {}
        self.stand_downs: List[Tuple[str, DependencyKey, str, int, float]] = []
        self.lost_takeovers: List[_Race] = []
        self.detections = 0

    # -- crash predicates (every call records a decision) ---------------
    def _alive_at(self, proc: str, time: float) -> bool:
        at = self.crashes.get(proc)
        if at is None:
            return True
        alive = self.decisions[(proc, time)] = time < at
        return alive

    def _alive_through(self, proc: str, start: float, end: float) -> bool:
        at = self.crashes.get(proc)
        if at is None:
            return True
        alive = self.decisions[(proc, end)] = end < at
        return alive

    # -- processes (mirror the executive's spawn order and branches) ----
    def execute(self) -> "_AbstractRun":
        auto = self.auto
        for proc, rows in auto.timelines.items():
            self.sim.process(self._computation_unit(proc, rows))
        for row in auto.senders:
            self.sim.process(
                self._replica_sender(row.op, row.processor, row.out_deps)
            )
        for op, dep, watcher in auto.watch_order:
            self.sim.process(self._watchdog(op, dep, watcher))
        self.sim.run()
        return self

    def _computation_unit(self, proc: str, rows):
        for op, _proc, predecessors, duration, out_deps, is_output, _ in rows:
            for pred in predecessors:
                yield Wait(self.data[((pred, op), proc)])
            if not self._alive_at(proc, self.sim.now):
                return
            start = self.sim.now
            yield Delay(duration)
            end = self.sim.now
            if not self._alive_through(proc, start, end):
                return
            for dep in out_deps:
                self.sim.fire(self.data[(dep, proc)])
            self.sim.fire(self.produced[(op, proc)])
            if is_output:
                self.outputs_done.add(op)

    def _replica_sender(self, op: str, proc: str, out_deps):
        auto = self.auto
        yield Wait(self.produced[(op, proc)])
        if not self._alive_at(proc, self.sim.now):
            return
        skip_flagged = auto.semantics is ScheduleSemantics.SOLUTION2
        plans = []
        for dep in out_deps:
            dests = [d for d in auto.destinations[dep] if d != proc]
            if skip_flagged:
                dests = [d for d in dests if d not in self.flags[proc]]
            if not dests:
                continue
            release = auto.planned_release.get((dep, proc))
            plans.append(
                (release if release is not None else self.sim.now, dep, dests)
            )
        plans.sort(key=lambda plan: (plan[0], plan[1]))
        for release, dep, dests in plans:
            if self.sim.now < release:
                yield Delay(release - self.sim.now)
            if not self._alive_at(proc, self.sim.now):
                return
            self._dispatch(dep, proc, dests, takeover=False)

    def _watchdog(self, op: str, dep: DependencyKey, watcher: str):
        auto = self.auto
        ladder = auto.ladders[(op, dep, watcher)]
        observed = self.observed[dep]
        for index, rung in enumerate(ladder):
            if not self._alive_at(watcher, self.sim.now):
                return
            if rung.candidate in self.flags[watcher]:
                continue  # coalesced skip: already known faulty, no wait
            outcome = yield WaitAny((observed,), rung.deadline + DEADLINE_SLACK)
            if not self._alive_at(watcher, self.sim.now):
                return
            if outcome is not None:
                self.stand_downs.append(
                    (op, dep, watcher, index, self.sim.now)
                )
                return  # one-shot stand-down edge
            if rung.candidate not in self.flags[watcher]:
                self.flags[watcher].add(rung.candidate)
                self.detections += 1
        if observed.fired:
            self.stand_downs.append(
                (op, dep, watcher, len(ladder), self.sim.now)
            )
            return
        yield Wait(self.produced[(op, watcher)])
        if not self._alive_at(watcher, self.sim.now):
            return
        dests = [d for d in auto.destinations[dep] if d != watcher]
        if dests:
            self._dispatch(dep, watcher, dests, takeover=True)
        self._fire_observed(dep, "takeover-dispatch", watcher)

    # -- network --------------------------------------------------------
    def _dispatch(
        self, dep: DependencyKey, sender: str, dests: Sequence[str], takeover: bool
    ) -> None:
        # Planner-identical frames, from the problem's static comm plan.
        routing = self.auto.problem.routing
        comm = self.auto.problem.communication
        groups, unicast = routing.frame_plan(dep, sender, dests, comm)
        for link, served in groups:
            self._emit(dep, sender, served, link, takeover, route=None)
        for dest in unicast:
            hops = routing.hop_plan(dep, sender, dest, comm)
            self._forward(dep, hops, 0, takeover)

    def _forward(self, dep, hops, index, takeover) -> None:
        if index >= len(hops):
            return
        hop_from, hop_to, link, _duration = hops[index]
        is_last = index == len(hops) - 1
        self._emit(
            dep,
            hop_from,
            (hop_to,),
            link,
            takeover,
            route=None if is_last else (hops, index + 1),
        )

    def _emit(self, dep, sender, dests, link, takeover, route) -> None:
        duration = self.auto.comm_duration(dep, link)
        start = max(self.sim.now, self.busy[link])
        if not self._alive_at(sender, start):
            return  # fail-stop before grant: frame never exists
        end = start + duration
        self.busy[link] = end
        if not self._alive_through(sender, start, end):
            # The frame occupies the link but is lost mid-transmission.
            if takeover:
                self.lost_takeovers.append(
                    _Race(dep, sender, self.sim.now, end)
                )
            return
        self.sim.at(
            end, self._complete, (dep, sender, dests, link, takeover, route), end
        )

    def _complete(self, frame, end: float) -> None:
        """A frame finished transmission: observe, deliver, relay on."""
        dep, sender, dests, link, takeover, route = frame
        if self.auto.observable(link):
            self._fire_observed(dep, "frame", sender)
            if self.auto.snoop_recovery:
                for flags in self.flags.values():
                    flags.discard(sender)
        for dest in dests:
            if self._alive_at(dest, end):
                self._deliver(dep, dest, sender, takeover)
        if route is not None:
            self._forward(dep, route[0], route[1], takeover)

    def _deliver(self, dep, dest, sender, takeover) -> None:
        event = self.data[(dep, dest)]
        if not event.fired:
            kind = "takeover" if takeover else "planned"
            self.delivery_source[(dep, dest)] = (
                kind,
                sender,
                self.auto.rank.get((dep[0], sender), 0),
            )
        self.sim.fire(event)

    def _fire_observed(self, dep, cause: str, sender: str) -> None:
        event = self.observed[dep]
        if not event.fired:
            self.observed_cause[dep] = (cause, sender, self.sim.now)
        self.sim.fire(event)

    # -- verdict --------------------------------------------------------
    @property
    def missing_outputs(self) -> Tuple[str, ...]:
        return tuple(
            op for op in self.auto.outputs if op not in self.outputs_done
        )

    @property
    def ok(self) -> bool:
        return not self.missing_outputs

    def undelivered(self) -> List[Tuple[DependencyKey, str]]:
        """(dep, destination) pairs where a *surviving* consumer
        replica never received the data it depends on."""
        starved = []
        for dep, dests in sorted(self.auto.destinations.items()):
            for dest in dests:
                if dest in self.crashes:
                    continue
                if not self.data[(dep, dest)].fired:
                    starved.append((dep, dest))
        return starved

    def races(self) -> List[_Race]:
        """Lost takeover frames whose dispatch-time observe retired
        watchers that still held armed rungs — the stand-down race."""
        out = []
        for race in self.lost_takeovers:
            cause = self.observed_cause.get(race.dep)
            if not cause or cause[0] != "takeover-dispatch":
                continue
            if cause[1] != race.dispatcher:
                continue
            stood = tuple(
                (watcher, index)
                for (op, dep, watcher, index, time) in self.stand_downs
                if dep == race.dep
                and watcher != race.dispatcher
                and time >= race.dispatch_time
            )
            if stood:
                out.append(
                    _Race(
                        race.dep,
                        race.dispatcher,
                        race.dispatch_time,
                        race.frame_end,
                        stood,
                    )
                )
        return out

    def witness_depth(self) -> int:
        depth = 0
        for kind, _sender, rank in self.delivery_source.values():
            depth = max(depth, rank + 1 if kind == "takeover" else 1)
        return depth


# ----------------------------------------------------------------------
# Region sweep over one crash subset
# ----------------------------------------------------------------------
@dataclass
class _SubsetResult:
    subset: Tuple[str, ...]
    status: str  # "safe" | "refuted" | "unproven"
    evaluations: int = 0
    #: Evaluations answered from the decision trie, without a run.
    replayed: int = 0
    refuted_cells: List[Tuple[tuple, "_AbstractRun"]] = field(
        default_factory=list
    )
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
    boundaries = auto.boundaries
    # The decision trie of the runs so far.  A node is the list
    # ``[proc, date, if_dead, if_alive]``: the question a run asked
    # and the subtree for each answer.  A leaf is ``(ok,
    # witness_depth, delivery sources, run if refuted)``.  A run sees
    # its crash dates only through its decisions, so a representative
    # that answers a whole root-to-leaf path the same way replays that
    # run exactly: same verdict, same guards (the path's dates).
    root: list = [None]
    interned: Dict[tuple, tuple] = {}
    worklist: List[tuple] = [tuple((0.0, math.inf) for _ in subset)]
    while worklist:
        cell = worklist.pop()
        if result.evaluations >= budget:
            result.status = "unproven"
            return result
        reps = {p: interval[0] for p, interval in zip(subset, cell)}
        guards: Dict[str, List[float]] = {p: [] for p in subset}
        parent, slot, walked = root, 0, 0
        node = root[0]
        while type(node) is list:
            proc, date = node[0], node[1]
            guards[proc].append(date)
            parent, slot = node, 3 if date < reps[proc] else 2
            node = node[slot]
            walked += 1
        if node is None:
            # A miss: run it, and hang its unseen decisions below the
            # walked prefix (which the run repeated, answer for answer).
            run = _AbstractRun(auto, reps).execute()
            for (proc, date), alive in itertools.islice(
                run.decisions.items(), walked, None
            ):
                guards[proc].append(date)
                child = [proc, date, None, None]
                parent[slot] = child
                parent, slot = child, 3 if alive else 2
            if run.ok:
                sources = tuple(
                    (dep, chain)
                    for (dep, _dest), chain in run.delivery_source.items()
                )
                node = (
                    True,
                    run.witness_depth(),
                    interned.setdefault(sources, sources),
                    None,
                )
            else:
                node = (False, 0, (), run)
            parent[slot] = node
        else:
            result.replayed += 1
        result.evaluations += 1
        ok, depth, sources, run = node
        # Partition the cell along the guards; the verdict holds on
        # the representative's (guard-free) sub-cell.
        axes = []
        for proc, (lo, hi) in zip(subset, cell):
            cuts = sorted(
                cut
                for cut in (
                    math.nextafter(date, math.inf) for date in guards[proc]
                )
                if lo < cut < hi
            )
            edges = [lo, *cuts, hi]
            axes.append(
                [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
            )
        rep_cell = tuple(axis[0] for axis in axes)
        for combo in itertools.product(*axes):
            if combo != rep_cell:
                worklist.append(combo)
        # Account the (processor, window)-classes this one evaluation
        # decided; anything beyond the first is a collapsed class.
        covered = 1
        for (lo, hi) in rep_cell:
            first, last = _cell_windows(boundaries, lo, hi)
            covered *= last - first + 1
        result.classes_collapsed += covered - 1
        if ok:
            result.witness_depth = max(result.witness_depth, depth)
            for dep, chain in sources:
                per_dep = result.chains.setdefault(dep, {})
                per_dep[chain] = per_dep.get(chain, 0) + 1
        else:
            result.status = "refuted"
            result.refuted_cells.append((rep_cell, run))
            if until_refuted:
                return result
    return result


# ----------------------------------------------------------------------
# Monotone dead-subset certificate
# ----------------------------------------------------------------------
def _reaches_output(auto: DeliveryAutomaton) -> Set[str]:
    reaches = set(auto.outputs)
    changed = True
    while changed:
        changed = False
        for src, dst in auto.destinations:  # every dependency key
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
    replayed = 0
    classes_collapsed = 0
    witness_depth = 0
    refuted_regions: List[ClassRegion] = []
    counterexamples: List[Counterexample] = []
    races: Dict[tuple, dict] = {}
    never_rearms: Dict[tuple, dict] = {}
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
        replayed += swept.replayed
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
            for cell, run in swept.refuted_cells:
                windows = {}
                for proc, (lo, hi) in zip(combo, cell):
                    windows[proc] = _cell_windows(auto.boundaries, lo, hi)
                refuted_regions.append(
                    ClassRegion(windows=windows, subset=combo)
                )
                _collect_race_findings(run, races, never_rearms)
            counterexamples.append(
                _cell_counterexample(auto, combo, swept.refuted_cells[0])
            )

    obs.count("proof.subsets_checked", subsets_checked)
    obs.count("proof.pruned", pruned)
    obs.count("proof.evaluations", evaluations)
    obs.count("proof.replayed", replayed)
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
        races=sorted(races.values(), key=lambda r: (r["dependency"], r["dispatcher"])),
        never_rearms=sorted(
            never_rearms.values(), key=lambda r: r["dependency"]
        ),
        unproven_subsets=tuple(unproven_subsets),
        automaton=auto.summary(),
    )


def _collect_race_findings(run: _AbstractRun, races, never_rearms) -> None:
    undelivered = {dep for dep, _dest in run.undelivered()}
    for race in run.races():
        if race.dep not in undelivered:
            continue
        key = (race.dep, race.dispatcher)
        races.setdefault(
            key,
            {
                "dependency": "%s -> %s" % race.dep,
                "dispatcher": race.dispatcher,
                "dispatch_time": round(race.dispatch_time, 6),
                "frame_end": round(race.frame_end, 6),
                "stood_down": sorted(
                    {watcher for watcher, _rank in race.stood_down}
                ),
            },
        )
    for dep in sorted(undelivered):
        cause = run.observed_cause.get(dep)
        if cause is None:
            continue
        # The one-shot observe fired, delivery still failed, and no
        # rung can ever re-arm: the ladder is permanently retired.
        never_rearms.setdefault(
            (dep,),
            {
                "dependency": "%s -> %s" % dep,
                "observed_by": cause[1],
                "observed_at": round(cause[2], 6),
                "cause": cause[0],
            },
        )


def _dependency_witnesses(auto, chains, counterexamples) -> List[DependencyWitness]:
    refuted_deps = set()
    for cx in counterexamples:
        refuted_deps.update(cx.undelivered_deps())
    witnesses = []
    for dep in sorted(auto.destinations):
        label = "%s -> %s" % dep
        if not auto.destinations[dep]:
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


def _cell_counterexample(
    auto: DeliveryAutomaton, subset, refuted_cell
) -> Counterexample:
    cell, run = refuted_cell
    crashes = {proc: lo for proc, (lo, hi) in zip(subset, cell)}
    return _counterexample_from_run(auto, subset, crashes, run)


def _certificate_counterexample(
    auto: DeliveryAutomaton, subset, dead_op: str
) -> Counterexample:
    crashes = {proc: 0.0 for proc in subset}
    run = _AbstractRun(auto, crashes).execute()
    cx = _counterexample_from_run(auto, subset, crashes, run)
    cx.narrative = (
        "every replica of %r is hosted on the crashed set %s: production "
        "is impossible from t=0, so this subset (and every superset) is "
        "provably dead" % (dead_op, sorted(subset))
    )
    return cx


def _counterexample_from_run(
    auto: DeliveryAutomaton, subset, crashes: Dict[str, float], run: _AbstractRun
) -> Counterexample:
    key = tuple(
        sorted(
            (proc, window_index(auto.boundaries, at))
            for proc, at in crashes.items()
        )
    )
    narrative_bits = []
    for race in run.races():
        narrative_bits.append(
            "watchers %s stood down at t=%.6f on %s's takeover frame for "
            "%s -> %s, which was then lost at t=%.6f; no rung re-arms"
            % (
                ", ".join(sorted({w for w, _r in race.stood_down})),
                race.dispatch_time,
                race.dispatcher,
                race.dep[0],
                race.dep[1],
                race.frame_end,
            )
        )
    for dep, dest in run.undelivered():
        narrative_bits.append(
            "%s -> %s never delivered to surviving replica on %s"
            % (dep[0], dep[1], dest)
        )
    return Counterexample(
        subset=tuple(sorted(subset)),
        crashes={proc: crashes[proc] for proc in sorted(crashes)},
        class_key=key,
        label=render_class(key),
        missing_outputs=run.missing_outputs,
        undelivered=tuple(
            "%s -> %s @ %s" % (dep[0], dep[1], dest)
            for dep, dest in run.undelivered()
        ),
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
    run = _AbstractRun(auto, dict(crashes), known_failed=known_failed).execute()
    cx = None
    if not run.ok:
        cx = _counterexample_from_run(
            auto, tuple(sorted(crashes)), dict(crashes), run
        )
    key = tuple(
        sorted(
            (proc, window_index(auto.boundaries, at))
            for proc, at in crashes.items()
        )
    )
    return ScenarioCheck(
        refuted=not run.ok,
        class_key=key,
        label=render_class(key),
        missing_outputs=run.missing_outputs,
        undelivered=tuple(
            "%s -> %s @ %s" % (dep[0], dep[1], dest)
            for dep, dest in run.undelivered()
        ),
        counterexample=cx,
    )
