"""The FT4xx static delivery prover (``repro.lint.proof``).

The prover must (a) prove the paper's examples safe without running a
single simulation, (b) statically rediscover the pinned ROADMAP
delivery-gap bug with a counterexample in the committed reproducer's
exact (processor, window)-class, and (c) stay sound: SAFE only when
every ≤K crash subset is covered, UNPROVEN when the budget runs out.
"""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import pytest

from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.core.timeline import event_boundaries
from repro.graphs.generators import random_bus_problem
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
from repro.lint.proof.model import render_class, window_index
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

FIXTURE = Path(__file__).parent / "fixtures" / "roadmap_delivery_gap.json"


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


class TestRoadmapGapRefuted:
    """The prover rediscovers the pinned Solution-1 delivery gap
    statically — no simulation, the automaton alone."""

    def test_verdict_unsafe(self, gap_proof):
        assert gap_proof.verdict == "UNSAFE"
        assert not gap_proof.safe
        assert gap_proof.counterexamples
        assert "refuted" in gap_proof.summary_line()

    def test_committed_class_is_refuted(self, gap_proof, gap_schedule):
        """The committed reproducer's (processor, window)-class is in
        the refuted region set."""
        reproducer = load_reproducer(FIXTURE)
        scenario = scenario_from_dict(reproducer["scenario"])
        committed = class_key(scenario, event_boundaries(gap_schedule))
        assert gap_proof.refutes_class(committed), (
            f"{render_class_key(committed)} not refuted; refuted classes: "
            f"{gap_proof.refuted_classes(limit=50)}"
        )

    def test_check_scenario_pins_committed_class(self, gap_schedule):
        """``repro prove --repro``: interpreting the reproducer's exact
        crash dates yields a counterexample in exactly its class."""
        reproducer = load_reproducer(FIXTURE)
        scenario = scenario_from_dict(reproducer["scenario"])
        crashes = {crash.processor: crash.at for crash in scenario.crashes}
        check = check_scenario(gap_schedule, crashes)
        assert check.refuted
        committed = class_key(scenario, event_boundaries(gap_schedule))
        assert check.class_key == committed
        assert check.label == render_class_key(committed)
        assert check.counterexample is not None
        assert check.counterexample.class_key == committed
        assert set(check.missing_outputs) == {"L3N0", "L3N1"}

    def test_counterexample_replays_to_failure(self, gap_schedule):
        """The statically derived counterexample, exported as a
        standard reproducer, fails in the actual simulator."""
        reproducer = load_reproducer(FIXTURE)
        scenario = scenario_from_dict(reproducer["scenario"])
        crashes = {crash.processor: crash.at for crash in scenario.crashes}
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

    def test_race_is_the_roadmap_race(self, gap_proof):
        """FT403 material: some refutation shows a takeover dispatch
        standing watchers down before its own frame is lost."""
        assert gap_proof.races
        race = next(
            r for r in gap_proof.races if r["dependency"] == "L1N2 -> L2N0"
        )
        assert race["stood_down"]
        assert race["frame_end"] > race["dispatch_time"]
        assert gap_proof.never_rearms  # FT402: the observe never re-arms


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
        # Never SAFE under a starved budget on a refutable schedule.
        assert proof.verdict != "SAFE"


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
        assert {"FT401", "FT402", "FT403", "FT404"} <= ids

    def test_paper_schedule_has_no_ft4xx_findings(self, bus_solution1):
        report = lint_schedule(bus_solution1.schedule)
        assert not [
            d for d in report.findings if d.rule.startswith("FT4")
        ]

    def test_gap_schedule_yields_ft401_402_403(self, gap_schedule):
        report = lint_schedule(gap_schedule)
        ft401 = report.by_rule("FT401")
        assert ft401, "delivery gap not refuted by lint"
        assert all(d.severity.value == "error" for d in ft401)
        assert any("crash class" in d.message for d in ft401)
        assert report.by_rule("FT402")
        assert report.by_rule("FT403")

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
                str(FIXTURE),
                "--counterexample",
                str(cx),
            ]
        )
        assert code == 1  # the pinned bug still fails (like campaign --repro)
        output = capsys.readouterr().out
        assert "refuted" in output
        assert "agrees" in output
        exported = json.loads(cx.read_text())
        assert exported["schema"] == REPRODUCER_SCHEMA_ID

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
