"""Campaign execution: scenarios in, verdicts and diagnoses out.

Each scenario runs the full executive simulation inside its **own**
fresh :func:`repro.obs.instrumented` session, so its ``sim.*`` work
counters are per-scenario (they become the outcome's ``work`` map)
and never pollute the caller's registry.  The campaign itself records
aggregate ``campaign.*`` counters on the *outer* obs — the same
two-level pattern the bench runner uses.

A scenario's verdict folds four checks:

1. the iteration completed (every output produced);
2. the produced values match :func:`repro.sim.values.reference_outputs`
   (replication must be value-transparent);
3. no replica-consistency anomalies were recorded;
4. :func:`repro.sim.verify.verify_trace` holds (physical invariants).

Failures are diagnosed (:mod:`.diagnose`), their crash set is greedily
minimized by re-simulation, and — when the caller supplied a problem
spec — a replayable reproducer document is attached.

Every simulation resumes from the schedule's failure-free run
(:class:`~repro.sim.runner.FailureFreePrefix`) instead of replaying it
from date 0: a block of scenarios builds one prefix and runs its
scenarios in ascending order of their first diverging step, so the
failure-free leader only moves forward; the prefix's failure-free
trace is also the diagnosis's nominal run.

``jobs > 1`` fans the scenario list out over worker processes in
contiguous blocks (the montecarlo pattern), each with its own prefix:
every scenario's outcome depends only on the scenario itself, and
outcomes are re-assembled in enumeration order, so the campaign result
is bit-identical for any ``jobs`` value.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ...analysis.gantt import render_trace
from ...core.schedule import Schedule
from ...sim.faults import FailureScenario
from ...sim.runner import FailureFreePrefix, simulate
from ...sim.trace import IterationTrace
from ...sim.values import reference_outputs
from ...sim.verify import verify_trace
from ..runtime import get_instrumentation, instrumented
from .diagnose import diagnose
from .model import (
    CampaignResult,
    CampaignScenario,
    ScenarioOutcome,
    make_reproducer,
    render_class_key,
)
from .space import CampaignSpace

__all__ = ["run_campaign", "execute_scenario", "minimize_scenario"]

#: Per-scenario work counters copied into each outcome.
_WORK_COUNTERS = (
    "sim.executions",
    "sim.frames_sent",
    "sim.frames_delivered",
    "sim.detections",
    "sim.takeovers",
)


def _verdict(
    trace: IterationTrace,
    schedule: Schedule,
    scenario: FailureScenario,
    reference: Mapping[str, int],
) -> List[str]:
    """The reasons a scenario fails (empty = pass)."""
    reasons: List[str] = []
    if not trace.completed:
        reasons.append("incomplete")
    elif dict(trace.output_values) != dict(reference):
        reasons.append("oracle-mismatch")
    if trace.value_anomalies:
        reasons.append("value-anomaly")
    report = verify_trace(trace, schedule, scenario)
    for rule in sorted({v.rule for v in report.violations}):
        reasons.append(f"trace:{rule}")
    return reasons


def _takeover_latency(
    trace: IterationTrace, scenario: FailureScenario
) -> float:
    """Worst crash-to-detection lag observed in the trace."""
    worst = 0.0
    for detection in trace.detections:
        crash = scenario.crash_of(detection.suspect)
        if crash is not None and detection.time >= crash.at:
            worst = max(worst, detection.time - crash.at)
    return worst


def minimize_scenario(
    schedule: Schedule,
    scenario: FailureScenario,
    reference: Mapping[str, int],
    prefix: Optional[FailureFreePrefix] = None,
) -> FailureScenario:
    """Greedily drop crashes that aren't needed to reproduce the failure.

    Re-simulates with each crash removed (to fixpoint; through
    ``prefix`` when given); a removal is kept when the scenario still
    fails.  The result is a locally minimal crash set — every
    remaining crash is load-bearing.
    """
    current = scenario
    shrunk = True
    while shrunk and len(current.crashes) > 1:
        shrunk = False
        for index in range(len(current.crashes)):
            crashes = (
                current.crashes[:index] + current.crashes[index + 1:]
            )
            candidate = FailureScenario(
                crashes=crashes,
                link_crashes=current.link_crashes,
                known_failed=current.known_failed
                & frozenset(c.processor for c in crashes),
                name=current.name + "[minimized]",
            )
            trace = simulate(schedule, candidate, prefix=prefix)
            if _verdict(trace, schedule, candidate, reference):
                current = candidate
                shrunk = True
                break
    return current


def execute_scenario(
    schedule: Schedule,
    campaign_scenario: CampaignScenario,
    reference: Mapping[str, int],
    problem_spec: Optional[Mapping[str, Any]] = None,
    method: str = "",
    minimize: bool = True,
    prefix: Optional[FailureFreePrefix] = None,
) -> ScenarioOutcome:
    """Run one scenario and fold its checks into an outcome; with a
    failure-free ``prefix`` of ``schedule``, every simulation resumes
    from it (a failing scenario without one builds one)."""
    scenario = campaign_scenario.scenario
    with instrumented() as session:
        trace = simulate(schedule, scenario, prefix=prefix)
        reasons = _verdict(trace, schedule, scenario, reference)
        work = {
            name: session.registry.counter_value(name)
            for name in _WORK_COUNTERS
        }
    outcome = ScenarioOutcome(
        name=str(scenario),
        key=render_class_key(campaign_scenario.key),
        origin=campaign_scenario.origin,
        status="fail" if reasons else "pass",
        reasons=reasons,
        response_time=trace.response_time,
        detections=len(trace.detections),
        takeover_latency=_takeover_latency(trace, scenario),
        work=work,
    )
    if reasons:
        if prefix is None:
            prefix = FailureFreePrefix(schedule)
        minimized = (
            minimize_scenario(schedule, scenario, reference, prefix)
            if minimize
            else scenario
        )
        diag_trace = (
            trace
            if minimized is scenario
            else simulate(schedule, minimized, prefix=prefix)
        )
        # The fault-free run of the same schedule roots the diagnosis in
        # the first divergence instead of just the starvation endpoint.
        report = diagnose(
            diag_trace, schedule, minimized, nominal=prefix.nominal
        )
        outcome.diagnosis = {
            "text": report.render(),
            "data": report.to_dict(),
            "gantt": render_trace(
                diag_trace,
                annotations=report.render().splitlines(),
            ),
        }
        if problem_spec is not None:
            outcome.reproducer = make_reproducer(
                problem_spec,
                method,
                minimized,
                note=report.render().splitlines()[0],
            )
    return outcome


def _run_block(payload) -> List[ScenarioOutcome]:
    """Execute one contiguous scenario block from one failure-free
    prefix, in ascending divergence-step order; return the outcomes in
    the block's order."""
    (schedule, scenarios, reference, problem_spec, method, minimize) = payload
    prefix = FailureFreePrefix(schedule)
    outcomes: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
    for index in sorted(
        range(len(scenarios)),
        key=lambda i: prefix.divergence_step(scenarios[i].scenario),
    ):
        outcomes[index] = execute_scenario(
            schedule, scenarios[index], reference, problem_spec, method,
            minimize, prefix,
        )
    return outcomes


def run_campaign(
    schedule: Schedule,
    space: CampaignSpace,
    label: str = "",
    method: str = "",
    failures: int = 1,
    jobs: int = 1,
    problem_spec: Optional[Mapping[str, Any]] = None,
    minimize: bool = True,
) -> CampaignResult:
    """Execute every scenario of ``space`` against ``schedule``.

    Deterministic for any ``jobs``: scenarios are independent and
    outcomes are kept in enumeration order.  Worker obs counters stay
    per-scenario; the parent records the aggregate ``campaign.*``
    counters.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    obs = get_instrumentation()
    reference = reference_outputs(schedule.problem.algorithm)
    scenarios = list(space.scenarios)

    with obs.span(
        "obs.campaign", label=label, scenarios=len(scenarios), jobs=jobs
    ):
        if jobs > 1 and len(scenarios) > 1:
            workers = min(jobs, len(scenarios))
            block, extra = divmod(len(scenarios), workers)
            payloads = []
            start = 0
            for worker in range(workers):
                count = block + (1 if worker < extra else 0)
                payloads.append((
                    schedule, scenarios[start:start + count], reference,
                    problem_spec, method, minimize,
                ))
                start += count
            outcomes: List[ScenarioOutcome] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for chunk in pool.map(_run_block, payloads):
                    outcomes.extend(chunk)
        else:
            outcomes = _run_block((
                schedule, scenarios, reference, problem_spec, method,
                minimize,
            ))

    result = CampaignResult(
        label=label,
        method=method,
        failures=failures,
        enumerated=space.enumerated_keys,
        outcomes=outcomes,
        deduplicated=space.deduplicated,
    )
    obs.count("campaign.scenarios", len(outcomes))
    obs.count("campaign.passed", len(result.passed))
    obs.count("campaign.failed", len(result.failed))
    obs.count("campaign.deduplicated", space.deduplicated)
    obs.count("campaign.classes_enumerated", len(result.enumerated))
    obs.count("campaign.classes_executed", len(result.executed_classes))
    obs.count(
        "campaign.diagnoses",
        sum(1 for o in outcomes if o.diagnosis is not None),
    )
    obs.gauge("campaign.coverage", result.coverage)
    if result.worst_takeover_latency:
        obs.observe(
            "campaign.takeover_latency", result.worst_takeover_latency
        )
    return result
