"""Built-in benchmark scenarios: the paper's experiments as tracked numbers.

Each scenario wraps one experiment the ``benchmarks/`` scripts already
reproduce (see EXPERIMENTS.md) and distills it into the metrics worth
tracking across commits:

* **quality** — the paper's quantities: makespans, overhead vs the
  recovered SynDEx baseline, simulated responses, Monte-Carlo
  availability with its Wilson 95% CI.  Deterministic, so their noise
  threshold is zero: any drift is a real behavior change.
* **counter** — obs counters (``pressure.evals``, ``sim.frames_sent``,
  ...): exact algorithmic work measures, immune to machine speed.  A
  jump here is a complexity regression even when the wall clock hides
  it.
* **timing** — wall-clock seconds, min-of-repeats.  Noisy; generous
  thresholds, and CI compares with ``--no-timings``.

Importing this module registers everything; the registry does that
lazily on first query.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict

from ...analysis.metrics import overhead
from ...core import schedule_solution1, schedule_solution2
from ...core.solution1 import Solution1Scheduler
from ...core.syndex import SyndexScheduler
from ...graphs.architecture import fully_connected_architecture
from ...graphs.generators import layered, random_bus_problem, random_problem
from ...graphs.io import canonical_problem_json
from ...paper import examples, expected
from ...sim import FailureScenario, simulate
from ...sim.montecarlo import estimate_availability
from ..ledger import ArtifactRef, LedgerSession, LedgerStore, detect_drift
from .model import Metric
from .registry import scenario

__all__ = []  # scenarios register themselves; nothing to import

#: Counters whose values are exact measures of algorithmic work.
_WORK_COUNTERS = (
    "pressure.evals",
    "scheduler.steps",
    "evalcache.hits",
    "evalcache.misses",
    "evalcache.invalidated",
    "sim.frames_sent",
    "sim.executions",
)


def _work_metrics(obs) -> Dict[str, Metric]:
    """The obs work counters recorded so far, as exact counter metrics."""
    metrics: Dict[str, Metric] = {}
    for name in _WORK_COUNTERS:
        value = obs.registry.counter_value(name)
        if value:
            metrics[name] = Metric(value, unit="events", direction="exact",
                                   kind="counter")
    return metrics


@scenario(
    "schedule.fig17.solution1",
    "Solution 1 on the paper's first (bus) example — Figure 17",
    suites=("quick", "full"),
    failures=1,
)
def fig17_solution1(obs, failures: int) -> Dict[str, Metric]:
    problem = examples.first_example_problem(failures=failures)
    result = schedule_solution1(problem)
    metrics = {
        "makespan": Metric(result.makespan, unit="time", direction="exact"),
        "replicas": Metric(
            sum(len(s.placements) for s in result.steps),
            unit="replicas", direction="exact", kind="counter",
        ),
    }
    metrics.update(_work_metrics(obs))
    return metrics


@scenario(
    "schedule.fig22.solution2",
    "Solution 2 on the paper's second (point-to-point) example — Figure 22",
    suites=("quick", "full"),
    failures=1,
)
def fig22_solution2(obs, failures: int) -> Dict[str, Metric]:
    problem = examples.second_example_problem(failures=failures)
    result = schedule_solution2(problem)
    metrics = {
        "makespan": Metric(result.makespan, unit="time", direction="exact"),
    }
    metrics.update(_work_metrics(obs))
    return metrics


@scenario(
    "overhead.fig17.vs_baseline",
    "Section 6.6 fault-tolerance overhead vs the recovered Figure 19 baseline",
    suites=("quick", "full"),
)
def fig17_overhead(obs) -> Dict[str, Metric]:
    problem = examples.first_example_problem(failures=1)
    solution = schedule_solution1(problem)
    baseline = expected.find_seed_for_makespan(
        SyndexScheduler, problem, expected.FIG19_BASELINE_MAKESPAN
    )
    if baseline is None:
        raise RuntimeError("Figure 19 baseline not found in tie family")
    report = overhead(baseline.schedule, solution.schedule)
    return {
        "baseline_makespan": Metric(
            baseline.makespan, unit="time", direction="exact"
        ),
        "overhead_abs": Metric(report.absolute, unit="time", direction="lower"),
        "overhead_rel": Metric(report.relative, unit="ratio", direction="lower"),
    }


@scenario(
    "sim.fig18.crash_p2",
    "Figure 18 transient iteration: P2 crashes at t=3.0 under Solution 1",
    suites=("quick", "full"),
    crash_at=3.0,
)
def fig18_crash(obs, crash_at: float) -> Dict[str, Metric]:
    problem = examples.first_example_problem(failures=1)
    result = schedule_solution1(problem)
    trace = simulate(result.schedule, FailureScenario.crash("P2", crash_at))
    if not trace.completed:
        raise RuntimeError("Figure 18 crash iteration did not complete")
    return {
        "response": Metric(trace.response_time, unit="time", direction="exact"),
        "frames_sent": Metric(
            obs.registry.counter_value("sim.frames_sent"),
            unit="frames", direction="exact", kind="counter",
        ),
        "detections": Metric(
            obs.registry.counter_value("sim.detections"),
            unit="events", direction="exact", kind="counter",
        ),
    }


@scenario(
    "montecarlo.fig17.availability",
    "Monte-Carlo availability of the Figure 17 schedule at p=0.1",
    suites=("quick", "full"),
    crash_probability=0.1,
    trials=120,
    seed=11,
)
def fig17_availability(
    obs, crash_probability: float, trials: int, seed: int
) -> Dict[str, Metric]:
    problem = examples.first_example_problem(failures=1)
    result = schedule_solution1(problem)
    estimate = estimate_availability(
        result.schedule, crash_probability, trials=trials, seed=seed
    )
    low, high = estimate.availability_ci95
    return {
        # Seeded, hence exactly reproducible — tracked as quality with
        # its CI bounds alongside for the dashboard.
        "availability": Metric(
            estimate.availability, unit="fraction", direction="exact"
        ),
        "ci_low": Metric(low, unit="fraction", direction="higher", noise=1.0),
        "ci_high": Metric(high, unit="fraction", direction="higher", noise=1.0),
        "survival_given_crash": Metric(
            estimate.conditional_survival, unit="fraction", direction="exact"
        ),
        "trials_per_s": Metric(
            estimate.trials_per_second, unit="1/s",
            direction="higher", kind="timing", noise=0.6,
        ),
    }


def _layered_p2p_problem(width: int, depth: int, processors: int, seed: int):
    """The scheduler-scale workload: a wide layered DAG on a p2p network."""
    algorithm = layered(width, depth, seed=seed)
    architecture = fully_connected_architecture(
        [f"P{i + 1}" for i in range(processors)], name=f"p2p{processors}"
    )
    return random_problem(algorithm, architecture, failures=1, seed=seed)


@scenario(
    "scheduler.layered.solution1",
    "Solution 1 on a large layered p2p workload (eval-cache hot path)",
    suites=("quick", "full"),
    width=16,
    depth=8,
    processors=20,
    seed=7,
)
def layered_solution1(
    obs, width: int, depth: int, processors: int, seed: int
) -> Dict[str, Metric]:
    problem = _layered_p2p_problem(width, depth, processors, seed)
    result = Solution1Scheduler(problem, seed=11).run()
    metrics = {
        "makespan": Metric(result.makespan, unit="time", direction="lower"),
        "operations": Metric(
            len(problem.algorithm.operations),
            unit="ops", direction="exact", kind="counter",
        ),
    }
    metrics.update(_work_metrics(obs))
    return metrics


@scenario(
    "scheduler.evalcache.speedup",
    "Eval-cache effectiveness: cached vs uncached wall clock on the "
    "layered p2p workload",
    suites=("quick", "full"),
    width=16,
    depth=8,
    processors=20,
    seed=7,
)
def evalcache_speedup(
    obs, width: int, depth: int, processors: int, seed: int
) -> Dict[str, Metric]:
    problem = _layered_p2p_problem(width, depth, processors, seed)
    problem.routing  # warm the routing table; both runs share it

    started = time.perf_counter()
    uncached = Solution1Scheduler(
        problem, seed=11, use_eval_cache=False
    ).run()
    uncached_wall = time.perf_counter() - started

    scheduler = Solution1Scheduler(problem, seed=11)
    started = time.perf_counter()
    cached = scheduler.run()
    cached_wall = time.perf_counter() - started

    # The cache's contract, checked on every bench run: bitwise
    # identical schedules with the cache on or off.
    if (cached.makespan != uncached.makespan
            or cached.decisions != uncached.decisions):
        raise RuntimeError("eval cache changed the schedule")
    hit_rate = scheduler.eval_cache.hit_rate
    return {
        "uncached_wall_s": Metric(
            uncached_wall, unit="s", direction="lower", kind="timing",
            noise=0.75,
        ),
        "cached_wall_s": Metric(
            cached_wall, unit="s", direction="lower", kind="timing",
            noise=0.75,
        ),
        "speedup": Metric(
            uncached_wall / cached_wall, unit="x", direction="higher",
            kind="timing", noise=0.5,
        ),
        "hit_rate": Metric(
            hit_rate, unit="fraction", direction="higher", noise=0.2,
        ),
    }


@scenario(
    "campaign.paper_examples",
    "Fault-injection campaign over both paper examples: class coverage, "
    "verdicts, worst takeover latency",
    suites=("quick", "full"),
    failures=1,
    seed=0,
)
def campaign_paper_examples(obs, failures: int, seed: int) -> Dict[str, Metric]:
    # Import here: repro.obs.bench must stay importable without pulling
    # the campaign subsystem (same leaf discipline as repro.obs).
    from ..campaign import enumerate_space, run_campaign

    targets = (
        ("paper:first", examples.first_example_problem(failures=failures),
         schedule_solution1),
        ("paper:second", examples.second_example_problem(failures=failures),
         schedule_solution2),
    )
    started = time.perf_counter()
    results = []
    for label, problem, method in targets:
        schedule = method(problem).schedule
        space = enumerate_space(schedule, failures=problem.failures, seed=seed)
        results.append(
            run_campaign(
                schedule, space, label=label, method=method.__name__,
                failures=problem.failures,
            )
        )
    wall = time.perf_counter() - started
    if not all(result.all_passed for result in results):
        raise RuntimeError("paper-example campaign has failing verdicts")
    return {
        # All deterministic: the enumerated space and every verdict are
        # functions of (schedule, seed) alone.
        "scenarios": Metric(
            sum(len(r.outcomes) for r in results),
            unit="scenarios", direction="exact", kind="counter",
        ),
        "classes": Metric(
            sum(len(r.enumerated) for r in results),
            unit="classes", direction="exact", kind="counter",
        ),
        "deduplicated": Metric(
            sum(r.deduplicated for r in results),
            unit="scenarios", direction="exact", kind="counter",
        ),
        "coverage": Metric(
            min(r.coverage for r in results), unit="fraction",
            direction="exact",
        ),
        "passed": Metric(
            sum(len(r.passed) for r in results),
            unit="scenarios", direction="exact", kind="counter",
        ),
        "worst_takeover_latency": Metric(
            max(r.worst_takeover_latency for r in results),
            unit="time", direction="lower",
        ),
        "campaign_wall_s": Metric(
            wall, unit="s", direction="lower", kind="timing", noise=0.75,
        ),
    }


@scenario(
    "lint.proof.paper_examples",
    "Static FT4xx delivery proof of both paper examples: subset-lattice "
    "and region-pruning effectiveness, proof size, wall time",
    suites=("quick", "full"),
    failures=1,
)
def lint_proof_paper_examples(obs, failures: int) -> Dict[str, Metric]:
    # Import here: the proof pack pulls repro.core and repro.lint,
    # which must not load when repro.obs.bench is merely imported.
    from ...lint.proof import prove_delivery

    targets = (
        ("paper:first", examples.first_example_problem(failures=failures),
         schedule_solution1),
        ("paper:second", examples.second_example_problem(failures=failures),
         schedule_solution2),
    )
    started = time.perf_counter()
    proofs = []
    for label, problem, method in targets:
        proof = prove_delivery(method(problem).schedule)
        if proof.verdict != "SAFE":
            raise RuntimeError(
                f"{label} is no longer provably delivered: {proof.verdict}"
            )
        proofs.append(proof)
    wall = time.perf_counter() - started
    return {
        # The prover is deterministic: every count is a function of
        # the (deterministic) schedules alone.
        "subsets_checked": Metric(
            sum(p.subsets_checked for p in proofs),
            unit="subsets", direction="exact", kind="counter",
        ),
        "evaluations": Metric(
            sum(p.evaluations for p in proofs),
            unit="runs", direction="exact", kind="counter",
        ),
        "classes_collapsed": Metric(
            sum(p.classes_collapsed for p in proofs),
            unit="classes", direction="exact", kind="counter",
        ),
        "witness_depth": Metric(
            max(p.witness_depth for p in proofs),
            unit="hops", direction="exact", kind="counter",
        ),
        "kernel_steps": Metric(
            obs.registry.counter_value("proof.steps"),
            unit="steps", direction="exact", kind="counter",
        ),
        "proof_wall_s": Metric(
            wall, unit="s", direction="lower", kind="timing", noise=0.75,
        ),
    }


@scenario(
    "causal.paper_examples",
    "Causal analysis of both paper examples under a transient crash: "
    "graph size, path shape, latency breakdown, fault cost",
    suites=("quick", "full"),
    crash_at=3.0,
)
def causal_paper_examples(obs, crash_at: float) -> Dict[str, Metric]:
    # Import here: repro.obs.bench must stay importable without pulling
    # the causal subsystem (same leaf discipline as repro.obs).
    from ..causal import analyze_trace

    targets = (
        ("paper:first", examples.first_example_problem(failures=1),
         schedule_solution1),
        ("paper:second", examples.second_example_problem(failures=1),
         schedule_solution2),
    )
    started = time.perf_counter()
    reports = []
    for label, problem, method in targets:
        schedule = method(problem).schedule
        nominal = simulate(schedule, FailureScenario.none())
        scenario_ = FailureScenario.crash("P2", crash_at)
        faulty = simulate(schedule, scenario_)
        report = analyze_trace(
            faulty, schedule, scenario=scenario_, nominal=nominal,
            method=method.__name__,
        )
        if abs(report.path.total - faulty.makespan) > 1e-6:
            raise RuntimeError(
                f"{label}: critical path does not sum to the makespan"
            )
        reports.append(report)
    wall = time.perf_counter() - started
    return {
        # All deterministic: the schedules, traces, and graphs are
        # functions of the problems alone.
        "graph_nodes": Metric(
            sum(len(r.graph.nodes) for r in reports),
            unit="events", direction="exact", kind="counter",
        ),
        "graph_edges": Metric(
            sum(len(r.graph.edges) for r in reports),
            unit="edges", direction="exact", kind="counter",
        ),
        "path_segments": Metric(
            sum(len(r.path.segments) for r in reports),
            unit="segments", direction="exact", kind="counter",
        ),
        "timeout_wait": Metric(
            sum(r.breakdown.get("timeout-wait", 0.0) for r in reports),
            unit="time", direction="exact",
        ),
        "fault_cost_attributed": Metric(
            sum(
                r.fault_cost.attributed for r in reports
                if r.fault_cost is not None
            ),
            unit="time", direction="exact",
        ),
        "diff_events": Metric(
            sum(len(r.diff.events) for r in reports if r.diff is not None),
            unit="events", direction="exact", kind="counter",
        ),
        "causal_wall_s": Metric(
            wall, unit="s", direction="lower", kind="timing", noise=0.75,
        ),
    }


@scenario(
    "ledger.paper_examples",
    "Run-ledger round trip over both paper examples: record twice, "
    "dedupe blobs, drift-diff the identical passes",
    suites=("quick", "full"),
    failures=1,
)
def ledger_paper_examples(obs, failures: int) -> Dict[str, Metric]:
    targets = (
        ("paper:first", examples.first_example_problem(failures=failures),
         schedule_solution1),
        ("paper:second", examples.second_example_problem(failures=failures),
         schedule_solution2),
    )
    started = time.perf_counter()
    blob_writes = 0
    with tempfile.TemporaryDirectory() as root:
        store = LedgerStore(root)
        # Two identical passes: the drift detector must come back clean
        # and every artifact blob must be stored exactly once.
        for _ in range(2):
            for label, problem, method in targets:
                schedule = method(problem).schedule
                # Sessions are driven directly (not via the ambient
                # ledger_session) so the scenario also works when the
                # bench run itself records into a ledger.
                session = LedgerSession(store, "bench.ledger",
                                        argv=["bench"], label=label)
                session.note_problem(problem)
                session.note_schedule(schedule)
                session.note_metric("makespan", schedule.makespan,
                                    unit="time")
                content = canonical_problem_json(problem).encode("utf-8")
                digest = store.put_blob(content)
                blob_writes += 1
                session.record.artifacts.append(
                    ArtifactRef("problem", f"{label}.json", digest,
                                len(content))
                )
                session.finish(0)
        records = list(store.records())
        drift = detect_drift(records)
        if not drift.clean:
            raise RuntimeError("identical ledger passes drifted")
        distinct_problems = len({r.problem_hash for r in records})
        blobs = len(store.blob_digests())
    wall = time.perf_counter() - started
    return {
        # All deterministic: the hashes, the dedupe, and the drift
        # verdicts are functions of the problems alone.
        "records": Metric(
            len(records), unit="records", direction="exact",
            kind="counter",
        ),
        "distinct_problems": Metric(
            distinct_problems, unit="problems", direction="exact",
            kind="counter",
        ),
        "blob_dedup_ratio": Metric(
            blob_writes / blobs, unit="x", direction="exact",
        ),
        "drift_pairs_compared": Metric(
            drift.pairs_compared, unit="pairs", direction="exact",
            kind="counter",
        ),
        "ledger_wall_s": Metric(
            wall, unit="s", direction="lower", kind="timing", noise=0.75,
        ),
    }


@scenario(
    "schedule.random24.solution1",
    "Solution 1 on a 24-operation random bus workload (scalability probe)",
    suites=("full",),
    operations=24,
    processors=4,
    seed=3,
)
def random24_solution1(
    obs, operations: int, processors: int, seed: int
) -> Dict[str, Metric]:
    problem = random_bus_problem(
        operations=operations, processors=processors, failures=1, seed=seed
    )
    result = schedule_solution1(problem)
    metrics = {
        "makespan": Metric(result.makespan, unit="time", direction="lower"),
    }
    metrics.update(_work_metrics(obs))
    return metrics
