"""Differential gate: the static prover vs the dynamic campaign layer.

Two independent implementations of the same question — "does this
schedule deliver under ≤K crashes?" — must agree on every problem:

* prover-SAFE  ⇒ an exhaustive ≤K campaign run finds no failing
  scenario;
* prover-UNSAFE ⇒ the prover's own exported counterexample fails in
  the real simulator (not merely *some* campaign scenario);
* spot-check: concrete crash assignments decided by
  ``check_scenario`` match ``simulate()`` exactly;
* the prover's run and the executive's run of the one protocol module
  (``repro.sim.protocol``) take the same kernel steps, produce the
  same replicas, detect as often and end with the same fail flags;
* certification is one-sided against the prover: a pattern
  ``certify_fault_tolerance`` fails (processors dead from the start)
  is a region of the prover's sweep, so certify FAIL ⇒ prover UNSAFE,
  and prover SAFE ⇒ certify ok;
* on the battery, FT216 never fires on a schedule FT401 proves;
* on a seeded battery of Solution-1 K=2 bus schedules, every proof is
  SAFE and the campaign over its ≤K crash space passes.

The battery is seeded and small (CI-speed); the CI workflow runs the
same gate as a job so drift between the layers blocks merges.
"""

from __future__ import annotations

import random

import pytest

from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.core.timeline import event_boundaries
from repro.core.validate import certify_fault_tolerance
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import (
    check_scenario,
    compile_automaton,
    counterexample_reproducer,
    prove_delivery,
    verifier,
)
from repro.obs.campaign import (
    CampaignScenario,
    class_key,
    enumerate_space,
    execute_scenario,
    problem_from_spec,
    run_campaign,
    scenario_from_dict,
)
from repro.sim import Crash, ExecutiveRuntime, FailureScenario, simulate
from repro.sim.values import reference_outputs

#: The seeded battery: (label, generator, kwargs, method).  Bus
#: problems get Solution 1 (snoop detection), point-to-point problems
#: Solution 2 — the paper's architecture rule, and the two prover
#: code paths.
BATTERY = [
    ("bus6-k1", random_bus_problem,
     dict(operations=6, processors=3, failures=1, seed=11), "solution1"),
    ("bus8-k1", random_bus_problem,
     dict(operations=8, processors=4, failures=1, seed=5), "solution1"),
    ("bus10-k2", random_bus_problem,
     dict(operations=10, processors=4, failures=2, seed=0), "solution1"),
    ("p2p6-k1", random_p2p_problem,
     dict(operations=6, processors=3, failures=1, seed=3), "solution2"),
    ("p2p8-k1", random_p2p_problem,
     dict(operations=8, processors=4, failures=1, seed=9), "solution2"),
]

_SCHEDULERS = {"solution1": schedule_solution1, "solution2": schedule_solution2}


def _spec(generator, kwargs):
    kind = "random-bus" if generator is random_bus_problem else "random-p2p"
    return {"kind": kind, **kwargs}


@pytest.fixture(scope="module", params=BATTERY, ids=[b[0] for b in BATTERY])
def target(request):
    label, generator, kwargs, method = request.param
    problem = generator(**kwargs)
    schedule = _SCHEDULERS[method](problem).schedule
    return label, problem, schedule, method, _spec(generator, kwargs)


class TestProverAgreesWithCampaign:
    def test_verdicts_agree(self, target):
        label, problem, schedule, method, spec = target
        proof = prove_delivery(schedule)
        assert proof.verdict in ("SAFE", "UNSAFE"), (
            f"{label}: budget exhausted on a battery-sized problem"
        )
        if proof.verdict == "SAFE":
            space = enumerate_space(schedule, failures=problem.failures, seed=1)
            result = run_campaign(
                schedule, space, label=label, method=method,
                failures=problem.failures,
            )
            assert result.all_passed, (
                f"{label}: prover says SAFE but campaign scenarios fail: "
                f"{[o.name for o in result.failed]}"
            )
        else:
            cx = proof.counterexample
            reproducer = counterexample_reproducer(cx, spec, method)
            replay = scenario_from_dict(reproducer["scenario"])
            rebuilt = problem_from_spec(reproducer["problem"])
            outcome = execute_scenario(
                schedule,
                CampaignScenario(
                    scenario=replay,
                    key=class_key(replay, event_boundaries(schedule)),
                    origin="reproducer",
                ),
                reference_outputs(rebuilt.algorithm),
                problem_spec=reproducer["problem"],
                method=method,
            )
            assert not outcome.passed, (
                f"{label}: prover counterexample {cx.label} passes in the "
                "simulator — the refutation is spurious"
            )

    def test_concrete_scenarios_bisimulate(self, target):
        """check_scenario() must equal simulate() on random concrete
        crash assignments — the abstract runs are exact."""
        label, problem, schedule, method, spec = target
        names = problem.architecture.processor_names
        for seed in range(20):
            scenario = FailureScenario.random(
                names, problem.failures, seed=seed
            )
            crashes = {c.processor: c.at for c in scenario.crashes}
            static = check_scenario(schedule, crashes)
            trace = simulate(schedule, scenario)
            assert static.refuted == (not trace.completed), (
                f"{label} seed {seed}: static verdict "
                f"{'refuted' if static.refuted else 'delivered'} but "
                f"simulator completed={trace.completed}"
            )


    def test_prover_and_executive_worlds_run_alike(self, target):
        """Both worlds run one protocol module: on seeded permanent-crash
        vectors of up to K+1 processors, dated in [0, 1.1·makespan],
        the prover's run and the executive's take the same kernel
        steps, produce the same replicas, detect as often, record the
        same observes and end with the same fail flags."""
        label, problem, schedule, method, spec = target
        auto = compile_automaton(schedule)
        names = problem.architecture.processor_names
        rng = random.Random(7)
        for trial in range(60):
            size = rng.randint(0, min(problem.failures + 1, len(names)))
            crashes = {
                proc: rng.uniform(0.0, 1.1 * schedule.makespan)
                for proc in rng.sample(names, size)
            }
            run = _CountingRun(auto, dict(crashes))
            run.execute()
            runtime = ExecutiveRuntime(
                schedule,
                FailureScenario(
                    crashes=tuple(Crash(p, at) for p, at in crashes.items())
                ),
            )
            trace = runtime.run()
            where = f"{label} trial {trial}: {crashes}"
            assert run.sim.steps == runtime.sim.steps, where
            assert _fired(run.produced) == _fired(runtime.produced), where
            assert run.detections == len(trace.detections), where
            assert run.flags == runtime.flags, where
            assert run.observed == trace.observed, where


class _CountingRun(verifier._AbstractRun):
    """The prover's run, counting its detections."""

    detections = 0

    def _detected(self, _op, _watcher, _suspect):
        self.detections += 1


def _fired(table) -> set:
    return {key for key, waiters in table.items() if waiters is None}


class TestCertifyIsOneSidedAgainstProver:
    """``certify`` replays the dead-from-start corner of the prover's
    crash-date sweep on the same automaton, so it can only miss
    refutations (mid-iteration crashes), never add one."""

    def test_certify_fail_implies_prover_unsafe(self, target):
        label, problem, schedule, method, spec = target
        # The problem's baseline schedule adds a certify-FAIL case.
        baseline = schedule_baseline(problem).schedule
        for name, candidate in ((method, schedule), ("baseline", baseline)):
            certified = certify_fault_tolerance(candidate).ok
            verdict = prove_delivery(candidate).verdict
            if not certified:
                assert verdict == "UNSAFE", (
                    f"{label}/{name}: certify FAIL, prover {verdict}"
                )
            if verdict == "SAFE":
                assert certified, f"{label}/{name}: prover SAFE, certify FAIL"


class TestFT216NeverContradictsFT401:
    """FT216 is a plan-inspection heuristic.  On the battery FT401
    refutes every schedule FT216 fires on.  The converse is false:
    FT401 also refutes schedules whose static plan FT216 finds no gap
    in, because the failure only shows in the protocol's run."""

    def test_ft216_implies_ft401(self, target):
        from repro.lint.registry import get_rule

        label, problem, schedule, method, spec = target
        ft216 = get_rule("FT216").findings(schedule)
        if not ft216:
            pytest.skip(f"{label}: FT216 silent here")
        proof = prove_delivery(schedule)
        assert proof.verdict == "UNSAFE", (
            f"{label}: FT216 fired ({ft216[0].message}) but the prover "
            f"verdict is {proof.verdict}"
        )

    def test_p2p_solution1_is_a_converse_witness(self):
        """A Solution-1 schedule on point-to-point links (oracle
        detection): FT401 refutes one crash of P1 and the simulator
        confirms it, while FT216 stays silent."""
        from repro.lint.registry import get_rule

        problem = random_p2p_problem(
            operations=10, processors=4, failures=1, seed=5
        )
        schedule = schedule_solution1(problem).schedule
        assert not get_rule("FT216").findings(schedule)
        proof = prove_delivery(schedule)
        assert proof.verdict == "UNSAFE"
        crashes = proof.counterexample.crashes
        assert set(crashes) == {"P1"}
        trace = simulate(
            schedule,
            FailureScenario(
                crashes=tuple(Crash(p, at) for p, at in crashes.items())
            ),
        )
        assert not trace.completed


#: ROADMAP items 1 and 2c: Solution-1 K=2 bus schedules, 10 operations
#: on 4 processors (the 12/5 battery takes about three times as long).
K2_SEEDS = range(12)


class TestSeededK2Battery:
    """Every Solution-1 K=2 bus schedule of the battery is proven SAFE
    and its ≤K campaign passes (prover SAFE ⇒ campaign passes)."""

    @pytest.mark.parametrize("seed", K2_SEEDS)
    def test_k2_bus_solution1_is_safe_and_passes(self, seed):
        problem = random_bus_problem(
            operations=10, processors=4, failures=2, seed=seed
        )
        schedule = schedule_solution1(problem).schedule
        proof = prove_delivery(schedule)
        assert proof.verdict == "SAFE", proof.summary_line()
        assert not proof.never_rearms
        space = enumerate_space(schedule, failures=2, seed=1)
        result = run_campaign(
            schedule, space, label=f"bus10-k2-s{seed}", method="solution1",
            failures=2,
        )
        assert result.all_passed, [o.name for o in result.failed]
