"""Experiment X8: quantified availability gain (exact).

The paper's motivation — "the loss of one computing site must not lead
to the loss of the whole application" (Section 1.2) — turned into a
number: per-iteration availability under random crashes, baseline vs
Solution 1, across crash probabilities.  The availability is exact: a
sum over the prover's crash-date regions of every crash subset.

Expected shape: the baseline's availability collapses roughly like
``(1-p)^(used processors)`` while the fault-tolerant schedule keeps
every iteration with at most one crash, so its conditional survival
given a disturbance stays high.
"""

import pytest

from repro.analysis.report import Table
from repro.sim.availability import exact_availability

from conftest import emit

PROBABILITIES = (0.02, 0.05, 0.1, 0.2)


def test_availability_vs_crash_probability(
    benchmark, fig17_result, fig19_result
):
    """X8a: availability, baseline vs Solution 1, sweeping p."""
    ft_schedule = fig17_result.schedule
    base_schedule = fig19_result.schedule

    def sweep():
        rows = []
        for p in PROBABILITIES:
            ft = exact_availability(ft_schedule, p)
            base = exact_availability(base_schedule, p)
            rows.append((p, base, ft))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        headers=(
            "crash prob / proc / iter",
            "baseline availability",
            "solution1 availability",
            "baseline survival | crash",
            "solution1 survival | crash",
        ),
        title="X8a - exact availability",
    )
    for p, base, ft in rows:
        table.add(
            p,
            f"{100 * base.availability:.1f}%",
            f"{100 * ft.availability:.1f}%",
            f"{100 * base.conditional_survival:.1f}%",
            f"{100 * ft.conditional_survival:.1f}%",
        )
        assert ft.availability >= base.availability
    emit(table)
    # At every p, surviving a disturbance is what replication buys.
    for p, base, ft in rows:
        assert ft.conditional_survival >= base.conditional_survival


def test_single_crash_always_survived(benchmark, fig17_result):
    """X8b: conditioning on exactly one crash, Solution 1 never loses
    an iteration (the K=1 contract, sampled)."""
    import random

    from repro.sim import FailureScenario, simulate

    schedule = fig17_result.schedule

    def sample():
        rng = random.Random(42)
        losses = 0
        for _ in range(60):
            victim = rng.choice(("P1", "P2", "P3"))
            at = rng.uniform(0.0, 9.4)
            trace = simulate(schedule, FailureScenario.crash(victim, at))
            if not trace.completed:
                losses += 1
        return losses

    losses = benchmark.pedantic(sample, rounds=1, iterations=1)
    emit(f"X8b - 60 random single crashes: {losses} lost iterations")
    assert losses == 0
