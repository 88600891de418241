"""Lint wall-time vs problem size.

`repro lint` is meant to sit in CI and in the inner loop of an
interactive design session, so its cost must stay trivial at paper
scale ("typically less than 10 processors", Section 1.3) and graceful
well above it.  This bench measures, with pytest-benchmark's timers:

* the FT1xx problem pass vs graph size — dominated by FT104's
  exhaustive (K+1)-survivability enumeration (``sum C(n, k)``
  patterns) and FT105's lower-bound computation;
* the FT2xx schedule pass vs graph size — dominated by FT212's
  certification (the same pattern enumeration, per schedule, each
  pattern one run of the compiled delivery automaton) and FT211's
  timeout-table recomputation;
* the combined `lint(problem, schedule)` a CI gate pays per target.

Numbers land in pytest-benchmark's JSON (``--benchmark-json=...``)
like every other bench in this directory; the printed rows are the
human summary (run with ``-s``).
"""

import pytest

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint import lint, lint_problem, lint_schedule

from conftest import emit

SMALL = dict(operations=10, processors=3, failures=1, seed=1)
MEDIUM = dict(operations=30, processors=6, failures=1, seed=1)
LARGE = dict(operations=60, processors=8, failures=2, seed=1)

SIZES = [("small", SMALL), ("medium", MEDIUM), ("large", LARGE)]


@pytest.mark.parametrize("size_name, params", SIZES)
def test_problem_pass_runtime(benchmark, size_name, params):
    problem = random_bus_problem(**params)
    report = benchmark(lambda: lint_problem(problem))
    emit(
        f"lint FT1xx on {size_name} "
        f"({params['operations']} ops x {params['processors']} procs, "
        f"K={params['failures']}): {len(report)} finding(s), "
        f"{len(report.errors)} error(s)"
    )
    assert not report.errors  # generator problems are well-formed


@pytest.mark.parametrize("size_name, params", SIZES)
def test_schedule_pass_runtime_solution1(benchmark, size_name, params):
    problem = random_bus_problem(**params)
    schedule = Solution1Scheduler(problem).run().schedule
    report = benchmark(lambda: lint_schedule(schedule))
    emit(
        f"lint FT2xx (solution1) on {size_name}: "
        f"{len(report)} finding(s), {len(report.errors)} error(s)"
    )
    assert not report.errors


@pytest.mark.parametrize("size_name, params", SIZES)
def test_schedule_pass_runtime_solution2(benchmark, size_name, params):
    problem = random_p2p_problem(**params)
    schedule = Solution2Scheduler(problem).run().schedule
    report = benchmark(lambda: lint_schedule(schedule))
    assert not report.errors


@pytest.mark.parametrize("size_name, params", SIZES)
def test_full_lint_runtime(benchmark, size_name, params):
    """What one CI target costs: both passes on a fresh schedule."""
    problem = random_bus_problem(**params)
    schedule = Solution1Scheduler(problem).run().schedule
    report = benchmark(lambda: lint(problem, schedule))
    emit(
        f"lint full pass on {size_name}: {len(report)} finding(s) "
        f"across {len({d.rule for d in report.findings})} rule(s)"
    )
    assert not report.errors
