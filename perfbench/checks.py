"""Output checks: every one counts toward ``attempted``, every miss toward ``failed``.

Verdicts are deliberately not pinned: a fix that turns an UNSAFE
schedule SAFE is correct.  What must hold is the one-sided agreement
of the two tolerance oracles, and that every prover counterexample
really breaks the simulated schedule.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.validate import validate_schedule
from repro.paper import examples, expected
from repro.sim import FailureScenario, simulate
from repro.sim.faults import Crash
from repro.sim.values import reference_outputs
from repro.sim.verify import verify_trace

from workloads import Inputs, PassResult

#: Paper figures the deterministic schedulers reproduce exactly.
PAPER_PINS = {
    "fig17.solution1": expected.FIG17_SOLUTION1_MAKESPAN,
    "fig22.solution2": expected.FIG22_SOLUTION2_MAKESPAN,
}

TOLERANCE = 1e-9


class Checks:
    """A tally of output checks and the names of the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_paper_pins(checks: Checks, pins: Optional[Mapping[str, float]] = None) -> None:
    """The two paper examples still schedule to their published makespans."""
    pins = PAPER_PINS if pins is None else pins
    runs = {
        "fig17.solution1": Solution1Scheduler(
            examples.first_example_problem(failures=1)
        ),
        "fig22.solution2": Solution2Scheduler(
            examples.second_example_problem(failures=1)
        ),
    }
    for name, scheduler in runs.items():
        result = scheduler.run()
        checks.check(validate_schedule(result.schedule).ok, f"{name}: invalid schedule")
        checks.check(
            abs(result.makespan - pins[name]) <= TOLERANCE,
            f"{name}: makespan {result.makespan!r} != paper {pins[name]!r}",
        )


def _breaks(schedule: Any, scenario: FailureScenario, reference: Mapping[str, int]) -> bool:
    """True when the simulated ``scenario`` misses or corrupts an output."""
    trace = simulate(schedule, scenario)
    return (
        not trace.completed
        or dict(trace.output_values) != dict(reference)
        or not verify_trace(trace, schedule, scenario).ok
    )


def check_pass(checks: Checks, inputs: Inputs, result: PassResult) -> None:
    """Check every output of one pass."""
    for spec, run in zip(inputs.problems, result.runs):
        where = f"{inputs.workload_name}/{run.name}"
        checks.check(run.hash == spec.hash, f"{where}: problem_hash changed by the round trip")
        reference = reference_outputs(run.problem.algorithm)
        for method, (_, report, _) in run.schedules.items():
            checks.check(report.ok, f"{where}/{method}: validate_schedule failed")
        for method, scenario, trace in run.traces:
            schedule = run.schedules[method][0].schedule
            label = f"{where}/{method} under {scenario}"
            checks.check(trace.completed, f"{label}: incomplete")
            checks.check(
                dict(trace.output_values) == reference, f"{label}: outputs differ"
            )
            checks.check(
                verify_trace(trace, schedule, scenario).ok, f"{label}: verify_trace"
            )
        schedule = run.schedules["solution1"][0].schedule
        proof, campaign = run.proof, run.campaign
        if proof is not None and campaign is not None:
            if proof.verdict == "SAFE":
                checks.check(
                    not campaign.failed, f"{where}: prover SAFE but the campaign fails"
                )
            if campaign.failed:
                checks.check(
                    proof.verdict == "UNSAFE",
                    f"{where}: campaign fails but prover says {proof.verdict}",
                )
        if proof is not None and proof.verdict == "UNSAFE":
            for cx in proof.counterexamples:
                scenario = FailureScenario(
                    crashes=tuple(
                        Crash(processor=p, at=at) for p, at in sorted(cx.crashes.items())
                    ),
                    name=f"counterexample({cx.label})",
                )
                checks.check(
                    _breaks(schedule, scenario, reference),
                    f"{where}: counterexample {cx.label} survives simulation",
                )
