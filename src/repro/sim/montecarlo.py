"""Monte-Carlo availability estimation.

The paper motivates fault tolerance qualitatively ("the loss of one
computing site must not lead to the loss of the whole application");
this module quantifies it: given a per-processor crash probability per
iteration, estimate by seeded Monte-Carlo simulation the fraction of
iterations that deliver all their outputs — for the baseline (any
crash of a used processor is fatal) versus the fault-tolerant
schedules (only patterns beyond K, or unlucky overlaps, are fatal).

Each trial samples an independent failure scenario (every processor
crashes with probability ``p`` at a uniform in-iteration date) and
runs the full executive simulation; results are exactly reproducible
per seed.  Trials that draw *no* crash reuse the one fault-free
simulation computed up front for the horizon — the executive is
deterministic, so re-running it would burn wall-time for an identical
trace (at small ``p`` the vast majority of trials take this path).

Trial ``i`` draws its scenario from its own ``random.Random`` seeded
with ``f"{seed}:{i}"`` (string seeding hashes with SHA-512, so the
stream is identical across platforms): a trial's outcome depends only
on ``(seed, i)``.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass, field
from typing import Tuple

from ..core.schedule import Schedule
from ..obs import get_instrumentation
from .faults import Crash, FailureScenario
from .runner import simulate

__all__ = ["AvailabilityEstimate", "estimate_availability"]

LOGGER = logging.getLogger(__name__)

#: Two-sided 95% normal quantile (z such that P(|Z| <= z) = 0.95).
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class AvailabilityEstimate:
    """Outcome of a Monte-Carlo availability run."""

    trials: int
    completed: int
    crash_probability: float
    #: Trials in which at least one processor crashed.
    disturbed: int
    #: Disturbed trials that still completed (the redundancy at work).
    disturbed_completed: int
    #: Wall-clock seconds the whole run took (0.0 for hand-built
    #: estimates, e.g. in tests).  Excluded from equality: two runs
    #: with the same seed are the *same estimate* whatever the clock
    #: said.
    elapsed: float = field(default=0.0, compare=False)

    @property
    def availability(self) -> float:
        """Fraction of iterations delivering all outputs."""
        if self.trials == 0:
            return 1.0
        return self.completed / self.trials

    @property
    def availability_ci95(self) -> Tuple[float, float]:
        """Wilson 95% confidence interval on :attr:`availability`.

        The Wilson score interval stays inside [0, 1] and behaves at
        the extremes (0 or ``trials`` successes), where the naive
        normal interval collapses to a width of zero.
        """
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        z = _Z95
        p = self.completed / n
        denominator = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denominator
        half = (z / denominator) * math.sqrt(
            p * (1.0 - p) / n + z * z / (4.0 * n * n)
        )
        return (max(0.0, center - half), min(1.0, center + half))

    @property
    def trials_per_second(self) -> float:
        """Simulation throughput of the run (0.0 when untimed)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.trials / self.elapsed

    @property
    def conditional_survival(self) -> float:
        """Survival probability *given* at least one crash happened."""
        if self.disturbed == 0:
            return 1.0
        return self.disturbed_completed / self.disturbed

    def __str__(self) -> str:
        low, high = self.availability_ci95
        text = (
            f"availability {100 * self.availability:.2f}% "
            f"(95% CI [{100 * low:.2f}%, {100 * high:.2f}%]) over "
            f"{self.trials} trials (p={self.crash_probability}); "
            f"survival given >=1 crash: "
            f"{100 * self.conditional_survival:.2f}%"
        )
        if self.elapsed > 0.0:
            text += (
                f"; {self.elapsed:.3f}s wall "
                f"({self.trials_per_second:.0f} trials/s)"
            )
        return text


def estimate_availability(
    schedule: Schedule,
    crash_probability: float,
    trials: int = 500,
    seed: int = 0,
) -> AvailabilityEstimate:
    """Estimate per-iteration availability under random crashes.

    Every trial is an independent iteration: each processor crashes
    with ``crash_probability`` at a date uniform over the failure-free
    response window.  Deterministic per ``seed``.
    """
    if not 0.0 <= crash_probability <= 1.0:
        raise ValueError("crash probability must be in [0, 1]")
    obs = get_instrumentation()
    started = time.perf_counter()
    procs = tuple(schedule.problem.architecture.processor_names)
    # One fault-free run fixes the horizon AND serves every undisturbed
    # trial below (the executive is deterministic).
    baseline_trace = simulate(schedule)
    horizon = max(baseline_trace.response_time, 1e-9)

    completed = disturbed = disturbed_completed = 0
    with obs.span(
        "sim.montecarlo", trials=trials, p=crash_probability, seed=seed
    ):
        for index in range(trials):
            rng = random.Random(f"{seed}:{index}")
            crashes = tuple(
                Crash(proc, round(rng.uniform(0.0, horizon), 6))
                for proc in procs
                if rng.random() < crash_probability
            )
            if crashes:
                scenario = FailureScenario(crashes=crashes, name="montecarlo")
                disturbed += 1
                if simulate(schedule, scenario).completed:
                    disturbed_completed += 1
                    completed += 1
            elif baseline_trace.completed:
                # Crash-free trials reuse the fault-free run's verdict.
                completed += 1
    elapsed = time.perf_counter() - started
    obs.count("sim.mc.trials", trials)
    obs.count("sim.mc.disturbed", disturbed)
    estimate = AvailabilityEstimate(
        trials=trials,
        completed=completed,
        crash_probability=crash_probability,
        disturbed=disturbed,
        disturbed_completed=disturbed_completed,
        elapsed=elapsed,
    )
    LOGGER.info("montecarlo: %s", estimate)
    return estimate
