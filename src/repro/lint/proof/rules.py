"""The FT4xx proof rule pack: lint findings from the static prover.

All four rules share one prover run per schedule (memoized per object
identity), so ``lint_schedule`` pays the proof cost once:

* **FT401 unproven-delivery** (error) — the ≤K tolerance claim is
  refuted (with a concrete, campaign-replayable counterexample per
  refuted crash subset) or could not be proven within budget.
* **FT402 ladder-never-rearms** (warning) — a refutation in which the
  per-dependency one-shot observe fired and yet delivery failed: once
  every watcher stood down, no timeout rung ever re-arms.
* **FT403 stand-down-races-lost-frame** (warning) — registered, never
  fires: the race it reported (watchers standing down when a takeover
  frame was *dispatched*, before it was lost mid-transmission) cannot
  happen, because a watcher stands down only on a *completed* frame.
* **FT404 realized-tolerance-exceeds-certified-K** (info) — the prover
  additionally verified all (K+1)-subsets: the schedule is better
  than its certificate claims.

FT216 remains as a *fast heuristic* beside FT401: it inspects only
the static plan (no protocol interpretation) and can fire on a
schedule FT401 proves safe (a backup with no ladder entry takes over
unconditionally).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator

from ...core.schedule import Schedule, ScheduleSemantics
from ..model import Diagnostic, Severity
from ..registry import Scope, rule
from .model import ProofResult
from .verifier import prove_delivery

__all__ = ["proof_for"]

#: One prover run per schedule object: the four FT4xx rules (and
#: ``repro certify --prove``) share the result.  Keyed by id() because
#: Schedule is not hashable; an entry is dropped when its schedule is
#: collected, so a key always names the live schedule it was made for.
_CACHE: Dict[int, ProofResult] = {}


def proof_for(schedule: Schedule, **kwargs) -> ProofResult:
    """The (memoized) proof result for ``schedule``."""
    if kwargs:
        return prove_delivery(schedule, **kwargs)
    key = id(schedule)
    result = _CACHE.get(key)
    if result is None:
        result = _CACHE[key] = prove_delivery(schedule)
        weakref.finalize(schedule, _CACHE.pop, key, None)
    return result


def _provable(schedule: Schedule) -> bool:
    """The prover covers replicated semantics and the baseline; it
    refuses nothing — but proving K=0 'tolerance' is vacuous noise."""
    return schedule.problem.failures > 0 or schedule.semantics in (
        ScheduleSemantics.SOLUTION1,
        ScheduleSemantics.SOLUTION2,
    )


@rule(
    "FT401",
    "unproven-delivery",
    Severity.ERROR,
    Scope.SCHEDULE,
    "the <=K-crash delivery claim is refuted (counterexample attached) "
    "or not provable within the exploration budget",
)
def check_unproven_delivery(schedule: Schedule) -> Iterator[Diagnostic]:
    if not _provable(schedule):
        return
    result = proof_for(schedule)
    if result.verdict == "UNSAFE":
        for cx in result.counterexamples:
            deps = cx.undelivered_deps()
            subject = deps[0] if deps else cx.label
            crashes = ", ".join(
                f"{proc}@{at:.6g}" for proc, at in sorted(cx.crashes.items())
            )
            detail = cx.narrative or "expected outputs are never produced"
            yield (
                f"delivery refuted for crash class {cx.label} "
                f"(witness crashes: {crashes}; missing outputs: "
                f"{', '.join(cx.missing_outputs) or 'none'}): {detail}",
                subject,
            )
    elif result.verdict == "UNPROVEN":
        for subset in result.unproven_subsets:
            yield (
                "could not prove delivery for crash subset "
                f"{{{', '.join(subset)}}} within the evaluation budget "
                f"({result.evaluations} evaluations); raise "
                "max_evals_per_subset to decide it",
                "+".join(subset),
            )


@rule(
    "FT402",
    "ladder-never-rearms",
    Severity.WARNING,
    Scope.SCHEDULE,
    "after the one-shot observe fires, no timeout rung re-arms: a lost "
    "post-observe frame is unrecoverable",
)
def check_ladder_never_rearms(schedule: Schedule) -> Iterator[Diagnostic]:
    if not _provable(schedule):
        return
    result = proof_for(schedule)
    for entry in result.never_rearms:
        yield (
            f"dependency {entry['dependency']}: the one-shot observe fired "
            f"at t={entry['observed_at']:g} (a frame from "
            f"{entry['observed_by']}) yet delivery still failed — every "
            "watcher is permanently stood down and no rung can re-arm the "
            "takeover",
            entry["dependency"],
        )


@rule(
    "FT403",
    "stand-down-races-lost-frame",
    Severity.WARNING,
    Scope.SCHEDULE,
    "a takeover dispatch stands armed watchers down before its own frame "
    "survives transmission",
)
def check_stand_down_race(schedule: Schedule) -> Iterator[Diagnostic]:
    # A watcher stands down only on a completed frame, so the race this
    # ID names has nothing left to report (the ID stays registered).
    return ()


@rule(
    "FT404",
    "realized-tolerance-exceeds-certified-K",
    Severity.INFO,
    Scope.SCHEDULE,
    "the prover verified strictly more crash subsets than the certified K "
    "requires",
)
def check_realized_tolerance(schedule: Schedule) -> Iterator[Diagnostic]:
    if not _provable(schedule):
        return
    result = proof_for(schedule)
    if result.beyond:
        yield (
            "realized tolerance exceeds the certified bound: all "
            f"<={result.beyond['proven_failures']}-crash subsets are proven "
            f"delivered although only K={result.beyond['certified_failures']} "
            "is certified",
            f"K={result.beyond['certified_failures']}",
        )
