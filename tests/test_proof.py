"""The FT4xx static delivery prover (``repro.lint.proof``).

The prover must (a) prove the paper's examples safe without running a
single simulation, (b) prove the schedule of the fixed ROADMAP
delivery gap safe and its committed reproducer delivered, while a
crash beyond K (the K+1 takeover-loss reproducer) is refuted with a
counterexample in the reproducer's exact (processor, window)-class,
and (c) stay sound: SAFE only when every ≤K crash subset is covered,
UNPROVEN when the budget runs out.
"""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import pytest

from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.core.timeline import event_boundaries
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint import lint_schedule
from repro.lint.proof import (
    PROOF_SCHEMA_ID,
    check_scenario,
    compile_automaton,
    counterexample_reproducer,
    load_proof,
    prove_delivery,
    save_proof,
)
from repro.lint.proof.model import ProofResult, render_class, window_index
from repro.obs import instrumented
from repro.obs.campaign import (
    REPRODUCER_SCHEMA_ID,
    CampaignScenario,
    class_key,
    execute_scenario,
    load_reproducer,
    problem_from_spec,
    render_class_key,
    scenario_from_dict,
)
from repro.paper import examples
from repro.sim import FailureScenario
from repro.sim.values import reference_outputs

FIXTURES = Path(__file__).parent / "fixtures"
#: The fixed ROADMAP delivery gap (expect "pass").
FIXTURE = FIXTURES / "roadmap_delivery_gap.json"
#: The same schedule with a third crash, beyond K (expect "fail").
K_PLUS_ONE = FIXTURES / "k_plus_one_takeover_loss.json"


@pytest.fixture(scope="module")
def first_proof(bus_solution1):
    return prove_delivery(bus_solution1.schedule)


@pytest.fixture(scope="module")
def gap_schedule():
    reproducer = load_reproducer(FIXTURE)
    problem = problem_from_spec(reproducer["problem"])
    return schedule_solution1(problem).schedule


@pytest.fixture(scope="module")
def gap_proof(gap_schedule):
    return prove_delivery(gap_schedule)


def p2p_solution1_schedule():
    """A Solution-1 schedule on point-to-point links that one crash of
    P1 starves (ROADMAP item 11)."""
    problem = random_p2p_problem(operations=10, processors=4, failures=1, seed=5)
    return schedule_solution1(problem).schedule


def _crashes(path):
    scenario = scenario_from_dict(load_reproducer(path)["scenario"])
    return scenario, {crash.processor: crash.at for crash in scenario.crashes}


class TestPaperExamplesSafe:
    def test_first_example_proven(self, first_proof):
        assert first_proof.verdict == "SAFE"
        assert first_proof.safe
        assert first_proof.failures == 1
        # empty subset + one per processor, none pruned away
        assert first_proof.subsets_checked == 1 + len(first_proof.processors)
        assert not first_proof.counterexamples
        assert not first_proof.unproven_subsets

    def test_first_example_witnesses(self, first_proof):
        statuses = {w.dependency: w.status for w in first_proof.dependencies}
        assert statuses, "no dependency witnesses recorded"
        assert set(statuses.values()) <= {"proven", "local"}
        proven = [w for w in first_proof.dependencies if w.status == "proven"]
        assert proven, "every dependency claims to be local"
        for witness in proven:
            assert witness.chains, witness.dependency
            kinds = {chain["kind"] for chain in witness.chains}
            assert kinds <= {"planned", "takeover"}

    def test_second_example_proven(self, p2p_solution2):
        proof = prove_delivery(p2p_solution2.schedule)
        assert proof.verdict == "SAFE"
        assert proof.semantics == "solution2"
        # Solution 2 sends from every replica: no takeover chains.
        assert proof.witness_depth == 1

    def test_summary_line_wording(self, first_proof):
        line = first_proof.summary_line()
        assert "by construction" in line
        assert "proven for all <=1 crash subsets" in line

    def test_artifact_roundtrip(self, first_proof, tmp_path):
        path = tmp_path / "proof.json"
        save_proof(first_proof, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == PROOF_SCHEMA_ID
        loaded = load_proof(path)
        assert loaded.to_dict() == first_proof.to_dict()
        assert loaded.verdict == "SAFE"
        assert [w.dependency for w in loaded.dependencies] == [
            w.dependency for w in first_proof.dependencies
        ]
        # Artifacts written before the race bookkeeping was deleted
        # carry a ``races`` key, which loading ignores.
        payload["races"] = []
        path.write_text(json.dumps(payload))
        assert load_proof(path).to_dict() == first_proof.to_dict()


class TestRoadmapGapDelivered:
    """The schedule of the fixed ROADMAP delivery gap: a watchdog stands
    down only on a completed frame, so the prover proves it SAFE and
    the committed reproducer is statically delivered."""

    def test_verdict_safe(self, gap_proof):
        assert gap_proof.verdict == "SAFE"
        assert gap_proof.safe
        assert not gap_proof.counterexamples
        assert not gap_proof.never_rearms
        assert gap_proof.evaluations == 1413
        assert "races" not in gap_proof.to_dict()

    def test_committed_scenario_is_delivered(self, gap_schedule):
        """``repro prove --repro``: the reproducer's exact crash dates
        deliver every output, in the reproducer's own class."""
        scenario, crashes = _crashes(FIXTURE)
        check = check_scenario(gap_schedule, crashes)
        assert not check.refuted
        assert check.counterexample is None
        assert not check.missing_outputs and not check.undelivered
        committed = class_key(scenario, event_boundaries(gap_schedule))
        assert check.class_key == committed
        assert check.label == render_class_key(committed)


class TestKPlusOneTakeoverLoss:
    """One crash beyond K on the same schedule (P3@18.5 added): both
    takeover frames for L1N2 -> L2N0 are lost mid-transmission, so the
    reproducer fails by design."""

    def test_check_scenario_pins_committed_class(self, gap_schedule):
        """``repro prove --repro``: interpreting the reproducer's exact
        crash dates yields a counterexample in exactly its class."""
        scenario, crashes = _crashes(K_PLUS_ONE)
        check = check_scenario(gap_schedule, crashes)
        assert check.refuted
        committed = class_key(scenario, event_boundaries(gap_schedule))
        assert check.class_key == committed
        assert check.label == render_class_key(committed)
        assert check.counterexample is not None
        assert check.counterexample.class_key == committed
        assert set(check.missing_outputs) == {"L3N0", "L3N1"}
        assert "L1N2 -> L2N0 @ P1" in check.undelivered

    def test_counterexample_replays_to_failure(self, gap_schedule):
        """The statically derived counterexample, exported as a
        standard reproducer, fails in the actual simulator."""
        reproducer = load_reproducer(K_PLUS_ONE)
        _scenario, crashes = _crashes(K_PLUS_ONE)
        check = check_scenario(gap_schedule, crashes)
        exported = counterexample_reproducer(
            check.counterexample, reproducer["problem"], "solution1"
        )
        assert exported["schema"] == REPRODUCER_SCHEMA_ID
        assert exported["expect"] == "fail"
        replay = scenario_from_dict(exported["scenario"])
        problem = problem_from_spec(exported["problem"])
        outcome = execute_scenario(
            gap_schedule,
            CampaignScenario(
                scenario=replay,
                key=class_key(replay, event_boundaries(gap_schedule)),
                origin="reproducer",
            ),
            reference_outputs(problem.algorithm),
            problem_spec=exported["problem"],
            method="solution1",
        )
        assert not outcome.passed
        assert "incomplete" in outcome.reasons


class TestPruning:
    def test_subset_lattice_prunes_supersets(self):
        """On a ≥6-processor problem the dead-subset lattice must keep
        the checked count strictly below 2^P."""
        problem = random_bus_problem(
            operations=12, processors=6, failures=2, seed=1
        )
        schedule = schedule_baseline(
            problem.without_fault_tolerance().with_failures(2)
        ).schedule
        proof = prove_delivery(schedule)
        processors = len(problem.architecture.processor_names)
        assert processors >= 6
        assert proof.verdict == "UNSAFE"  # baseline: no replication
        assert proof.subsets_checked < 2 ** processors
        assert proof.subsets_pruned > 0

    def test_window_classes_collapse(self, gap_proof):
        """Region sweeping must cover many (processor, window) classes
        per concrete evaluation."""
        assert gap_proof.classes_collapsed > gap_proof.evaluations


class TestSoundnessDegradation:
    def test_budget_exhaustion_is_unproven_not_safe(self, gap_schedule):
        proof = prove_delivery(gap_schedule, max_evals_per_subset=3)
        assert proof.verdict in ("UNPROVEN", "UNSAFE")
        if proof.verdict == "UNPROVEN":
            assert proof.unproven_subsets
        # Never SAFE under a starved budget, even on a schedule that a
        # full budget proves SAFE.
        assert proof.verdict != "SAFE"

    @pytest.mark.parametrize("budget", [6, 16])
    def test_an_exhausted_budget_keeps_a_refuted_leaf(self, budget):
        """P1's first refuted leaf is leaf 6 of its 17: a budget that
        ends the sweep after it still refutes P1, with the full
        budget's counterexample, and P1 is a dead root whose supersets
        are pruned."""
        schedule = p2p_solution1_schedule()
        full = prove_delivery(schedule, probe_beyond=False)
        proof = prove_delivery(
            schedule, max_evals_per_subset=budget, probe_beyond=False
        )
        assert proof.verdict == "UNSAFE"
        assert proof.counterexamples == full.counterexamples
        assert [cx.crashes for cx in proof.counterexamples] == [
            {"P1": pytest.approx(6.072)}
        ]
        assert ("P1",) not in proof.unproven_subsets
        assert proof.never_rearms == full.never_rearms
        pairs = prove_delivery(
            schedule,
            max_evals_per_subset=budget,
            max_failures=2,
            probe_beyond=False,
        )
        assert pairs.subsets_pruned == 3  # {P1, P2}, {P1, P3}, {P1, P4}


class TestClassEncodingMatchesCampaign:
    """The proof layer's class encoding must be bit-identical to the
    campaign layer's, or reproducers and refuted regions drift apart."""

    def test_window_index_and_render(self, gap_schedule):
        boundaries = event_boundaries(gap_schedule)
        scenario = FailureScenario.random(
            gap_schedule.problem.architecture.processor_names, 2, seed=7
        )
        campaign_key = class_key(scenario, boundaries)
        proof_key = tuple(
            sorted(
                (crash.processor, window_index(boundaries, crash.at))
                for crash in scenario.crashes
            )
        )
        assert proof_key == campaign_key
        assert render_class(proof_key) == render_class_key(campaign_key)
        assert render_class(()) == render_class_key(())


class TestObsIntegration:
    def test_counters_and_spans(self, gap_schedule):
        with instrumented() as session:
            prove_delivery(gap_schedule)
        registry = session.registry
        assert registry.counter_value("proof.subsets_checked") > 0
        assert registry.counter_value("proof.evaluations") > 0
        assert registry.counter_value("proof.classes_collapsed") > 0
        names = {span.name for span in session.tracer.spans}
        assert {"proof.compile", "proof.verify"} <= names

    def test_the_k_plus_1_probe_has_its_own_span(self, bus_solution1):
        """A SAFE proof probes K+1 crashes inside ``proof.probe``, so the
        probe is timed directly, not as a difference of two proofs."""
        with instrumented() as session:
            proof = prove_delivery(bus_solution1.schedule)
        assert proof.verdict == "SAFE"
        (probe,) = [s for s in session.tracer.spans if s.name == "proof.probe"]
        assert dict(probe.args)["failures"] == proof.failures + 1

    def test_probe_counters_are_pinned(self):
        """A K=1 proof whose K+1 probe sweeps pairs and stops drawing at
        its first refuted leaf: the instrumented counters of both
        sweeps together are exact."""
        problem = random_bus_problem(
            operations=10, processors=4, failures=1, seed=2
        )
        schedule = schedule_solution1(problem).schedule
        with instrumented() as session:
            proof = prove_delivery(schedule)
        assert proof.verdict == "SAFE" and proof.beyond is None
        assert proof.evaluations == 44
        counters = {
            name: session.registry.counter_value(f"proof.{name}")
            for name in (
                "evaluations", "steps", "subsets_checked", "pruned",
                "classes_collapsed",
            )
        }
        assert counters == {
            "evaluations": 93,
            "steps": 3083,
            "subsets_checked": 7,
            "pruned": 0,
            "classes_collapsed": 1768,
        }

    def test_every_evaluation_is_one_run(self, gap_schedule, monkeypatch):
        """Each evaluation is one run of the automaton over one leaf of
        the decision tree: no cell is answered without a run."""
        from repro.lint.proof import verifier

        execute = verifier._AbstractRun.execute
        runs = []

        def counted(run, checkpoints_from=math.inf):
            if checkpoints_from != math.inf:  # a sweep run
                runs.append(dict(run.crashes))
            return execute(run, checkpoints_from)

        monkeypatch.setattr(verifier._AbstractRun, "execute", counted)
        with instrumented() as session:
            prove_delivery(gap_schedule)
        registry = session.registry
        assert registry.counter_value("proof.evaluations") == len(runs) > 0
        assert registry.counter_value("proof.steps") > 0
        assert "proof.replayed" not in registry.to_dict()["counters"]
        assert "proof.resumed" not in registry.to_dict()["counters"]


class TestLintIntegration:
    def test_proof_cache_drops_collected_schedules(self, bus_problem):
        from repro.lint.proof import rules

        # Schedules earlier tests dropped may still await collection.
        gc.collect()
        before = len(rules._CACHE)
        for _ in range(5):
            schedule = schedule_solution1(bus_problem).schedule
            assert rules.proof_for(schedule) is rules.proof_for(schedule)
        del schedule
        gc.collect()
        assert len(rules._CACHE) == before

    def test_rules_registered(self):
        from repro.lint import all_rules

        ids = {rule.id for rule in all_rules()}
        assert {"FT401", "FT402", "FT404"} <= ids
        assert "FT403" not in ids  # retired

    def test_paper_schedule_has_no_ft4xx_findings(self, bus_solution1):
        report = lint_schedule(bus_solution1.schedule)
        assert not [
            d for d in report.findings if d.rule.startswith("FT4")
        ]

    def test_k_plus_one_proof_yields_ft401_not_ft403(self):
        """The K+1 reproducer's schedule, linted with its K+1 proof in
        the memo: FT401 reports the refutation, and nothing is reported
        under the retired FT403."""
        from repro.lint.proof import rules

        problem = problem_from_spec(load_reproducer(K_PLUS_ONE)["problem"])
        schedule = schedule_solution1(problem).schedule
        rules._CACHE[id(schedule)] = prove_delivery(schedule, max_failures=3)
        try:
            report = lint_schedule(schedule)
        finally:
            rules._CACHE.pop(id(schedule))
        ft401 = report.by_rule("FT401")
        assert ft401, "K+1 crashes not refuted by lint"
        assert all(d.severity.value == "error" for d in ft401)
        assert any("crash class" in d.message for d in ft401)
        assert not report.by_rule("FT403")

    def test_ft401_unproven_names_the_cli_budget_option(self, bus_problem):
        """An UNPROVEN finding names the one budget a user can raise:
        ``repro prove --max-evals``."""
        from repro.lint.proof import rules

        schedule = schedule_solution1(bus_problem).schedule
        proof = prove_delivery(schedule, max_evals_per_subset=2)
        assert proof.verdict == "UNPROVEN"
        rules._CACHE[id(schedule)] = proof
        try:
            ft401 = lint_schedule(schedule).by_rule("FT401")
        finally:
            rules._CACHE.pop(id(schedule))
        assert sorted(d.subject for d in ft401) == ["P1", "P2", "P3"]
        assert all("repro prove --max-evals" in d.message for d in ft401)

    def test_ft402_reports_a_never_rearming_ladder(self):
        """Solution 1 on point-to-point links: P1's frame of
        (L0N0, L1N0) to P3 completes and fires the one-shot observe,
        its frame to P4 is lost with P1, and no rung re-arms."""
        schedule = p2p_solution1_schedule()
        proof = prove_delivery(schedule)
        assert proof.never_rearms == [
            {
                "dependency": "L0N0 -> L1N0",
                "observed_by": "P1",
                "observed_at": 6.072,
            }
        ]
        (finding,) = lint_schedule(schedule).by_rule("FT402")
        assert finding.subject == "L0N0 -> L1N0"
        assert finding.severity.value == "warning"
        assert "observe fired at t=6.072 (a frame from P1)" in finding.message
        restored = ProofResult.from_dict(proof.to_dict())
        assert restored.never_rearms == proof.never_rearms

    def test_automaton_summary_shape(self, gap_schedule):
        auto = compile_automaton(gap_schedule)
        summary = auto.summary()
        assert summary["semantics"] == "solution1"
        assert summary["detection"] == "snoop"
        assert summary["processors"] == sorted(
            gap_schedule.problem.architecture.processor_names
        )
        assert summary["dependencies"]


class TestProveCli:
    def test_prove_paper_safe_exit0(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "proof.json"
        code = main(
            ["prove", "--paper", "fig17", "--out", str(out)]
        )
        assert code == 0
        assert "SAFE" in capsys.readouterr().out
        assert json.loads(out.read_text())["schema"] == PROOF_SCHEMA_ID

    def test_prove_repro_exit1_and_counterexample(self, tmp_path, capsys):
        from repro.cli import main

        cx = tmp_path / "cx.json"
        code = main(
            [
                "prove",
                "--repro",
                str(K_PLUS_ONE),
                "--counterexample",
                str(cx),
            ]
        )
        assert code == 1  # the K+1 scenario fails (like campaign --repro)
        output = capsys.readouterr().out
        assert "refuted" in output
        assert "agrees" in output
        exported = json.loads(cx.read_text())
        assert exported["schema"] == REPRODUCER_SCHEMA_ID

    def test_prove_repro_exit0_on_the_fixed_gap(self, tmp_path, capsys):
        from repro.cli import main

        cx = tmp_path / "cx.json"
        code = main(
            ["prove", "--repro", str(FIXTURE), "--counterexample", str(cx)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "verdict: delivered" in output
        assert "expects 'pass': the static verdict agrees" in output
        assert not cx.exists()

    def test_certify_prove_exit0_on_paper(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import save_problem

        path = tmp_path / "first.json"
        save_problem(examples.first_example_problem(failures=1), path)
        code = main(
            ["certify", str(path), "--method", "solution1", "--prove"]
        )
        assert code == 0
        assert "by construction" in capsys.readouterr().out
