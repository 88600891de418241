"""Experiment X9: latency vs throughput — what fault tolerance costs
each of them.

The paper evaluates latency (the makespan).  Deployments also care
about throughput: the smallest period at which input events can keep
arriving.  Three bounds frame it (see
:mod:`repro.analysis.periodic`):

    resource bound  <=  executive bound  <=  makespan
    (modulo sched.)     (in-order pipelining)  (run-to-completion)

This bench reports all three per method, and validates the executive
bound *dynamically* on the p2p example: the pipelined simulation (the
executive's own process bodies, one runtime per iteration) sustains
it and drifts linearly below it.  The bound is sufficient, not tight
in general: ``tests/test_pipeline.py`` checks that every schedule of
the compile-golden battery sustains it, and some of them sustain
shorter periods too.
"""

import pytest

from repro.analysis.periodic import (
    executive_period_bound,
    min_period,
)
from repro.analysis.report import Table
from repro.core import schedule_baseline, schedule_solution2
from repro.sim.pipeline import simulate_pipelined

from conftest import emit


def test_throughput_bounds_per_method(
    benchmark, p2p_problem, fig22_result, fig24_result
):
    """X9a: the three period bounds for baseline and Solution 2."""

    def measure():
        rows = []
        for name, schedule in (
            ("baseline", fig24_result.schedule),
            ("solution2", fig22_result.schedule),
        ):
            rows.append(
                (
                    name,
                    min_period(schedule),
                    executive_period_bound(schedule),
                    schedule.makespan,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = Table(
        headers=("method", "resource bound", "executive bound", "makespan"),
        title="X9a - minimum sustainable period (p2p example)",
    )
    for name, resource, executive, makespan in rows:
        table.add(name, round(resource, 3), round(executive, 3),
                  round(makespan, 3))
        assert resource <= executive + 1e-9 <= makespan + 1e-9
    emit(table)
    base = dict((r[0], r) for r in rows)
    # Replication inflates the resource floor: fault tolerance costs
    # throughput headroom, not just latency.
    assert base["solution2"][1] >= base["baseline"][1] - 1e-9


def test_executive_bound_is_dynamically_tight(benchmark, fig24_result):
    """X9b: the pipelined executive sustains its bound, not 8% below."""
    schedule = fig24_result.schedule
    bound = executive_period_bound(schedule)

    def probe():
        at_bound = simulate_pipelined(schedule, bound, iterations=12)
        below = simulate_pipelined(schedule, bound * 0.92, iterations=12)
        return at_bound, below

    at_bound, below = benchmark.pedantic(probe, rounds=1, iterations=1)
    emit(
        f"X9b - at the bound (T={bound:g}): drift {at_bound.drift:.3f}; "
        f"8% below: drift {below.drift:.3f} over {below.iterations} iterations"
    )
    assert at_bound.is_sustainable(tolerance=1e-6)
    assert below.drift > 0


def test_throughput_latency_tradeoff_curve(benchmark, fig22_result):
    """X9c: response time vs offered period for Solution 2."""
    schedule = fig22_result.schedule
    bound = executive_period_bound(schedule)
    periods = [round(bound * f, 3) for f in (0.9, 1.0, 1.1, 1.3)]

    def sweep():
        return {
            period: simulate_pipelined(schedule, period, iterations=10)
            for period in periods
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        headers=("period", "first response", "last response", "sustainable"),
        title="X9c - Solution-2 latency vs offered load (p2p example)",
    )
    for period, result in results.items():
        responses = result.response_times
        table.add(
            period,
            round(responses[0], 3),
            round(responses[-1], 3),
            result.is_sustainable(tolerance=1e-6),
        )
    emit(table)
    assert results[periods[0]].drift > 0  # overloaded
    assert results[periods[-1]].is_sustainable(tolerance=1e-6)
