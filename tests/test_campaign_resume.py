"""Campaign scenarios resumed from the failure-free run equal fresh runs.

:class:`~repro.sim.runner.FailureFreePrefix` runs each scenario from a
checkpoint of the failure-free run taken just before the scenario's
first diverging step.  That is sound only if a resumed run is the run a
fresh start would have made: the tests below simulate every enumerated
scenario of a seeded battery (Solution 1 on buses at K=1 and K=2,
Solution 2 on point-to-point links, baseline schedules) both ways and
compare the traces field by field, plus scenarios that must start
again from step 0 (outage windows, link crashes, pre-set fail flags).
They also pin the skipped work: executed plus skipped kernel steps is
the fresh run's step count.
"""

from __future__ import annotations

import pytest

from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.obs import get_instrumentation, instrumented
from repro.obs.campaign import enumerate_space, executor, run_campaign
from repro.sim import FailureScenario, simulate
from repro.sim.executive import ExecutiveRuntime
from repro.sim.faults import Crash
from repro.sim.runner import FailureFreePrefix

#: (label, problem factory, scheduler).
BATTERY = [
    ("s1-bus-k1", lambda: random_bus_problem(
        operations=10, processors=4, failures=1, seed=3), schedule_solution1),
    ("s1-bus-k2", lambda: random_bus_problem(
        operations=8, processors=4, failures=2, seed=2), schedule_solution1),
    ("s2-p2p-k1", lambda: random_p2p_problem(
        operations=8, processors=4, failures=1, seed=9), schedule_solution2),
    ("s2-p2p-k2", lambda: random_p2p_problem(
        operations=8, processors=4, failures=2, seed=4), schedule_solution2),
    ("baseline-bus", lambda: random_bus_problem(
        operations=8, processors=4, failures=1, seed=2), schedule_baseline),
    ("baseline-p2p", lambda: random_p2p_problem(
        operations=8, processors=4, failures=1, seed=9), schedule_baseline),
]
IDS = [label for label, _factory, _scheduler in BATTERY]

#: The ``verify-bus`` benchmark's Solution-1 bus problems and the kernel
#: steps their campaigns take when every scenario starts at date 0.
BUS_CASES = {
    "bus20k1": (dict(operations=20, processors=5, failures=1, seed=1), 58158),
    "bus12k2": (dict(operations=12, processors=4, failures=2, seed=1), 32214),
    "bus10k2": (dict(operations=10, processors=4, failures=2, seed=0), 22272),
}


def _schedule(factory, scheduler):
    problem = factory()
    return problem, scheduler(problem).schedule


def _restarting_scenarios(schedule):
    """Scenarios the prefix cannot skip into: each diverges at step 0."""
    architecture = schedule.problem.architecture
    first, second = architecture.processor_names[:2]
    link = architecture.link_names[0]
    return [
        FailureScenario.intermittent(first, 2.0, 6.0),
        FailureScenario(crashes=(Crash(first, 3.0), Crash(second, 1.0, 4.0))),
        FailureScenario.link_failure(link, 1.5),
        FailureScenario.crash(second, 50.0).with_known(first),
        FailureScenario.dead_from_start(first, known=True),
    ]


@pytest.fixture(
    scope="module", params=[b[1:] for b in BATTERY], ids=IDS
)
def case(request):
    problem, schedule = _schedule(*request.param)
    space = enumerate_space(schedule, failures=problem.failures)
    return schedule, [s.scenario for s in space.scenarios]


def test_every_resumed_trace_equals_a_fresh_run(case):
    schedule, scenarios = case
    prefix = FailureFreePrefix(schedule)
    extra = _restarting_scenarios(schedule)
    for scenario in sorted(scenarios + extra, key=prefix.divergence_step):
        assert prefix.run(scenario) == ExecutiveRuntime(schedule, scenario).run(), (
            str(scenario)
        )
    assert 0 < max(map(prefix.divergence_step, scenarios)) <= prefix.steps


def test_out_of_order_scenarios_start_the_leader_again(case):
    schedule, scenarios = case
    prefix = FailureFreePrefix(schedule)
    backwards = sorted(scenarios, key=prefix.divergence_step, reverse=True)
    for scenario in backwards[:20]:
        assert prefix.run(scenario) == ExecutiveRuntime(schedule, scenario).run()


def test_restarting_scenarios_diverge_at_step_zero(case):
    schedule, _scenarios = case
    prefix = FailureFreePrefix(schedule)
    for scenario in _restarting_scenarios(schedule):
        assert prefix.divergence_step(scenario) == 0, str(scenario)


def test_failure_free_scenario_skips_the_whole_run(case):
    schedule, _scenarios = case
    prefix = FailureFreePrefix(schedule)
    none = FailureScenario.none()
    assert prefix.divergence_step(none) == prefix.steps
    assert prefix.nominal == ExecutiveRuntime(schedule).run()
    with instrumented() as session:
        assert prefix.run(none) == prefix.nominal
        assert session.registry.counter_value("sim.engine.events") == 0
        assert session.registry.counter_value("sim.prefix_steps") == prefix.steps


@pytest.mark.parametrize(
    "factory, scheduler", [b[1:] for b in BATTERY[:3]], ids=IDS[:3]
)
def test_campaign_is_the_same_for_two_jobs(factory, scheduler):
    problem, schedule = _schedule(factory, scheduler)
    space = enumerate_space(schedule, failures=problem.failures)
    results = [
        run_campaign(schedule, space, failures=problem.failures, jobs=jobs)
        for jobs in (1, 2)
    ]
    one, two = (result.to_dict() for result in results)
    one.pop("created"), two.pop("created")
    assert one == two


@pytest.mark.parametrize("label", sorted(BUS_CASES))
def test_executed_plus_skipped_steps_is_the_fresh_count(monkeypatch, label):
    """Per scenario, ``sim.engine.events`` (executed) plus
    ``sim.prefix_steps`` (skipped) is the fresh run's kernel steps."""
    settings, fresh_steps = BUS_CASES[label]
    problem = random_bus_problem(**settings)
    schedule = schedule_solution1(problem).schedule
    space = enumerate_space(schedule, failures=problem.failures)
    totals = {"sim.engine.events": 0.0, "sim.prefix_steps": 0.0}
    original = executor.simulate

    def counting(*args, **kwargs):
        registry = get_instrumentation().registry
        before = {name: registry.counter_value(name) for name in totals}
        trace = original(*args, **kwargs)
        for name in totals:
            totals[name] += registry.counter_value(name) - before[name]
        return trace

    monkeypatch.setattr(executor, "simulate", counting)
    result = run_campaign(schedule, space, failures=problem.failures)
    assert result.all_passed
    assert sum(totals.values()) == fresh_steps
    assert 0 < totals["sim.prefix_steps"] < fresh_steps


def test_prefix_rejects_non_default_arguments():
    problem, schedule = _schedule(*BATTERY[0][1:])
    prefix = FailureFreePrefix(schedule)
    crash = FailureScenario.crash(problem.architecture.processor_names[0], 3.0)
    assert simulate(schedule, crash, prefix=prefix) == simulate(schedule, crash)
    for kwargs in (
        dict(detection="snoop"),
        dict(initial_flags={"P1": {"P2"}}),
        dict(snoop_recovery=False),
        dict(iteration=1),
    ):
        with pytest.raises(ValueError, match="default detection"):
            simulate(schedule, crash, prefix=prefix, **kwargs)
    other = schedule_solution1(problem).schedule
    with pytest.raises(ValueError, match="another schedule"):
        simulate(other, crash, prefix=prefix)
