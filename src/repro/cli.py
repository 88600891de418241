"""Command-line interface.

Usage (installed as ``repro-scheduler``, or ``python -m repro``):

    repro-scheduler [-v|-vv|--quiet] COMMAND ...

    repro-scheduler schedule PROBLEM --method solution1 \
        [--best-of N] [--jobs N] [--no-eval-cache] \
        [--gantt] [--svg FILE] [--executive] [--json]
    repro-scheduler simulate PROBLEM --method solution1 \
        [--crash P2@3.0] [--iterations 3] [--period T] [--gantt] [--svg FILE]
    repro-scheduler compare PROBLEM [--best-of N] [--jobs N]
    repro-scheduler certify PROBLEM --method solution2 [--prove]
    repro-scheduler prove [PROBLEM] [--paper fig17] [--method auto] \
        [--out PROOF.json] [--counterexample REPRO.json] [--repro FILE] \
        [--max-evals N]
    repro-scheduler profile [PROBLEM] [--paper fig17] --method solution1 \
        [--crash P2@3.0] [--obs-out out.trace.json] [--metrics-out m.json]
    repro-scheduler explain [PROBLEM] [--paper fig17] --method solution1 \
        [--op NAME] [--full]
    repro-scheduler lint [PROBLEM ...] [--paper all] [--method auto] \
        [--format text|json|sarif] [--suppress FT214,...] [--fail-on error]
    repro-scheduler bench run [--suite quick] [--out BENCH_quick.jsonl]
    repro-scheduler bench compare BASELINE [CURRENT] [--no-timings]
    repro-scheduler bench report [SLICE ...] [--out bench_dashboard.html]
    repro-scheduler bench list
    repro-scheduler campaign run [PROBLEM] [--paper fig17] [--suite smoke] \
        [--repro FILE] [--jobs N] [--out CAMPAIGN.json] [--html page.html] \
        [--artifacts DIR] [--max-scenarios N]
    repro-scheduler campaign report CAMPAIGN.json [--out page.html]
    repro-scheduler [--ledger|--ledger-dir DIR] COMMAND ...
    repro-scheduler runs list [--problem HASH] [--command C] [--verdict v] \
        [--since T] [--until T] [--limit N]
    repro-scheduler runs show RUN [--json]
    repro-scheduler runs diff [BASELINE CURRENT] [--timings] [--noise-scale X]
    repro-scheduler runs drift [--timings]
    repro-scheduler runs query [filters] (JSON lines)
    repro-scheduler runs gc [--keep N] [--before T] [--dry-run]
    repro-scheduler runs report [--out ledger_dashboard.html]
    repro-scheduler advise PROBLEM
    repro-scheduler paper [--which first|second|all] [--gantt]
    repro-scheduler figures OUTDIR
    repro-scheduler export-example FILE [--which first|second]

``PROBLEM`` is a ``.json`` file (:mod:`repro.graphs.io`) or a ``.aaa``
text file (:mod:`repro.graphs.text_format`), chosen by extension; the
``export-example`` command writes the paper's examples in either
format so users have a template to start from.

Observability: ``profile`` runs a schedule + simulation under full
instrumentation and reports the metrics registry, the span summary and
(with ``--obs-out``) a Chrome trace-event JSON; ``explain`` prints the
per-operation placement rationale from the scheduler's decision log.
``schedule``/``simulate``/``compare``/``certify`` accept ``--obs-out``
to capture a trace of a normal run, and ``--obs-off`` forces
instrumentation off.  The global ``-v``/``-vv``/``--quiet`` flags (put
them *before* the subcommand) set the ``repro`` log level to
INFO/DEBUG/ERROR; see ``docs/observability.md``.

Benchmark tracking: ``bench run`` executes a registered scenario suite
under instrumentation and writes a ``BENCH_<suite>.jsonl`` slice of run
records (one per scenario); ``bench compare`` diffs two slices and
exits non-zero on regression verdicts (the CI gate, like ``lint``);
``bench report`` renders slices as the HTML/SVG dashboard ``runs
report`` also uses; see ``docs/benchmarks.md``.

Fault-injection campaigns: ``campaign run`` enumerates the crash
scenario space of a schedule (critical instants, ≤K subsets, random
strata), executes every equivalence class, diagnoses failures down to
the undelivered dependency, and exits non-zero on failing verdicts;
``campaign report`` re-renders a saved ``CAMPAIGN.json``; see
``docs/campaigns.md``.

Static proof: ``prove`` compiles the schedule into a delivery
automaton and verifies every dependency of every surviving replica
under every ≤K crash subset — SAFE emits a machine-checkable
``repro.lint.proof/1`` artifact, UNSAFE a campaign-replayable
counterexample; ``certify --prove`` folds the FT4xx findings into the
certification gate; see ``docs/lint.md``.

Run ledger: with ``--ledger`` (or ``REPRO_LEDGER=1``, or
``--ledger-dir DIR``) every invocation is recorded in an append-only,
content-addressed ledger under ``.repro/ledger/`` — command, canonical
problem/schedule hashes, environment fingerprint, metrics, exit code,
and every written artifact deduplicated by digest.  ``repro runs``
queries the history: ``list``/``show``/``query`` browse it, ``diff``
compares two runs with the direction-aware record comparator that
``bench compare`` also uses (exit 1 on regression), ``drift`` scans
every problem lineage, ``gc`` applies retention, ``report`` renders
the longitudinal HTML dashboard; see ``docs/ledger.md``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from .analysis import (
    comparison_table,
    ComparisonRow,
    overhead,
    render_schedule,
    render_trace,
    schedule_to_svg,
    trace_to_svg,
)
from .core import (
    ScheduleResult,
    schedule_baseline,
    schedule_solution1,
    schedule_solution2,
)
from .core.list_scheduler import best_over_seeds
from .core.solution1 import Solution1Scheduler
from .core.solution2 import Solution2Scheduler
from .core.syndex import SyndexScheduler
from .core.validate import certify_fault_tolerance, validate_schedule
from .graphs.io import load_problem, save_problem, schedule_to_dict
from .graphs.problem import Problem
from .graphs.text_format import load_problem_text, save_problem_text
from .lint import (
    LintConfig,
    LintReport,
    Severity,
    all_rules,
    lint_problem,
    lint_schedule,
    render_text,
    report_to_json,
    report_to_sarif,
)
from .obs import instrumented
from .obs.ledger.session import note_metric, note_problem, note_schedule
from .paper import examples, expected
from .sim import FailureScenario, simulate, simulate_sequence

_METHODS = {
    "baseline": SyndexScheduler,
    "solution1": Solution1Scheduler,
    "solution2": Solution2Scheduler,
}


#: ``--paper`` aliases accepted by ``profile`` and ``explain``: the
#: figure numbers of the paper and plain ordinals both work.
_PAPER_ALIASES = {
    "fig17": examples.first_example_problem,
    "first": examples.first_example_problem,
    "fig22": examples.second_example_problem,
    "second": examples.second_example_problem,
}


def _load_any(path: str) -> Problem:
    """Load a problem by extension: .aaa text format, else JSON.

    Load failures become a clean one-line error (exit code 2), never a
    traceback: pointing a command at a missing file, malformed JSON,
    or a different artifact (e.g. a ``schedule --json`` export, which
    carries no problem definition and no decision log) is an everyday
    mistake, not an internal error.
    """
    try:
        if path.endswith(".aaa"):
            problem = load_problem_text(path)
        else:
            problem = load_problem(path)
        note_problem(problem)
        return problem
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise SystemExit(
            f"error: {path} is not a problem file "
            f"({type(error).__name__}: {error}); expected the problem "
            "JSON of repro.graphs.io or a .aaa text file "
            "(see repro export-example)"
        )


def _resolve_problem(args: argparse.Namespace) -> Problem:
    """A problem from the optional positional file or ``--paper`` alias."""
    if getattr(args, "paper", ""):
        problem = _PAPER_ALIASES[args.paper](failures=1)
        note_problem(problem)
        return problem
    if getattr(args, "problem", None):
        return _load_any(args.problem)
    raise SystemExit("error: give a PROBLEM file or --paper fig17|fig22")


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Wire the ``repro`` logger hierarchy to stderr.

    ``--quiet`` -> ERROR, default -> WARNING, ``-v`` -> INFO,
    ``-vv`` -> DEBUG.  Idempotent across repeated :func:`main` calls
    (tests invoke it many times in one process).
    """
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    logger.propagate = False
    if logger.handlers:
        handler = logger.handlers[0]
    else:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    # Rebind to the *current* stderr: test harnesses swap (and close)
    # the stream between invocations, and a stale handle would swallow
    # the logs.  Plain assignment — setStream() flushes the old stream,
    # which may already be closed.
    if isinstance(handler, logging.StreamHandler):
        handler.stream = sys.stderr


@contextmanager
def _obs_session(args: argparse.Namespace):
    """Run a command under instrumentation when ``--obs-out`` asks for it.

    Commands that manage their own session (``profile``) opt out via
    the ``obs_managed`` parser default; ``--obs-off`` wins over
    ``--obs-out``.
    """
    obs_out = getattr(args, "obs_out", "")
    if (
        not obs_out
        or getattr(args, "obs_off", False)
        or getattr(args, "obs_managed", False)
    ):
        yield None
        return
    with instrumented() as instr:
        yield instr
    _export_trace(instr, obs_out)


def _export_trace(instr, path: str) -> None:
    """Write the session's spans to ``path``: JSONL or a Chrome trace."""
    if path.endswith(".jsonl"):
        count = instr.tracer.export_jsonl(path)
        print(f"wrote {count} span records to {path} (JSONL, one per line)")
    else:
        count = instr.tracer.write_chrome_trace(path)
        print(
            f"wrote {count} trace events to {path} "
            "(open in ui.perfetto.dev or chrome://tracing)"
        )


def _run_method(
    problem: Problem,
    method: str,
    best_of: int,
    jobs: int = 1,
    eval_cache: bool = True,
) -> ScheduleResult:
    scheduler_class = _METHODS[method]
    if best_of > 0:
        result = best_over_seeds(
            scheduler_class,
            problem,
            attempts=best_of,
            jobs=jobs,
            use_eval_cache=eval_cache,
        )
    else:
        result = scheduler_class(problem, use_eval_cache=eval_cache).run()
    # Provenance for the run ledger (no-ops unless --ledger is on):
    # the canonical hash of what was produced and the paper's primary
    # quality number, comparator-ready.
    note_schedule(result.schedule)
    note_metric("makespan", result.makespan, unit="time", noise=0.0)
    return result


def _run_method_args(
    problem: Problem, method: str, args: argparse.Namespace
) -> ScheduleResult:
    """:func:`_run_method` driven by the shared CLI flags on ``args``."""
    return _run_method(
        problem,
        method,
        args.best_of,
        jobs=getattr(args, "jobs", 1),
        eval_cache=not getattr(args, "no_eval_cache", False),
    )


def _parse_crash(text: str) -> FailureScenario:
    """``P2@3.0`` -> crash of P2 at t=3.0; ``P2`` -> dead from start."""
    if "@" in text:
        processor, _, date = text.partition("@")
        return FailureScenario.crash(processor, float(date))
    return FailureScenario.dead_from_start(text)


def _parse_scenario(text: str) -> FailureScenario:
    """``none`` | one or more crash specs: ``P2@3.0,P4@1.5``."""
    text = text.strip()
    if not text or text == "none":
        return FailureScenario.none()
    parts = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if len(parts) == 1:
        return _parse_crash(parts[0])
    crashes = []
    known: set = set()
    for part in parts:
        single = _parse_crash(part)
        crashes.extend(single.crashes)
        known.update(single.known_failed)
    return FailureScenario(
        crashes=tuple(crashes), known_failed=frozenset(known), name=text
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    problem = _load_any(args.problem)
    result = _run_method_args(problem, args.method, args)
    schedule = result.schedule
    report = validate_schedule(schedule)
    print(f"method: {args.method}  makespan: {schedule.makespan:g}")
    if report.ok:
        print("validation: ok")
    else:
        print("validation: FAILED")
        print(render_text(report.to_lint_report()))
    if args.gantt:
        print(render_schedule(schedule))
    if args.svg:
        with open(args.svg, "w") as handle:
            handle.write(schedule_to_svg(schedule))
        print(f"wrote SVG timing diagram to {args.svg}")
    if args.executive:
        from .codegen import render_executive

        print(render_executive(schedule))
    if args.json:
        print(json.dumps(schedule_to_dict(schedule), indent=2))
    return report.to_lint_report().gate()


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_any(args.problem)
    result = _run_method_args(problem, args.method, args)
    schedule = result.schedule
    scenario = _parse_crash(args.crash) if args.crash else FailureScenario.none()
    if args.period > 0:
        from .sim.pipeline import simulate_pipelined

        run = simulate_pipelined(
            schedule,
            args.period,
            iterations=max(args.iterations, 2),
            scenario=scenario,
        )
        print(
            f"pipelined run: period={args.period:g} "
            f"iterations={run.iterations}"
        )
        for index, response in enumerate(run.response_times):
            print(f"  iteration {index}: response {response:g}")
        print(
            f"sustainable: {run.is_sustainable(tolerance=1e-6)} "
            f"(drift {run.drift:g})"
        )
        return 0
    if args.iterations > 1:
        scenarios = [scenario] + [
            FailureScenario.dead_from_start(*sorted(scenario.failed_processors))
            for _ in range(args.iterations - 1)
        ]
        run = simulate_sequence(schedule, scenarios)
        for index, trace in enumerate(run.iterations):
            label = "transient" if index == 0 else f"subsequent {index}"
            print(
                f"iteration {index} ({label}): "
                f"response={trace.response_time:g} "
                f"completed={trace.completed}"
            )
            if args.gantt:
                print(render_trace(trace))
    else:
        trace = simulate(schedule, scenario)
        print(
            f"scenario: {scenario}  response: {trace.response_time:g}  "
            f"completed: {trace.completed}"
        )
        if args.gantt:
            print(render_trace(trace))
        if args.svg:
            with open(args.svg, "w") as handle:
                handle.write(trace_to_svg(trace))
            print(f"wrote SVG timing diagram to {args.svg}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    problem = _load_any(args.problem)
    baseline = _run_method_args(problem, "baseline", args)
    rows = []
    for method in ("solution1", "solution2"):
        result = _run_method_args(problem, method, args)
        report = overhead(baseline.schedule, result.schedule)
        rows.append(
            (
                method,
                result.makespan,
                report.absolute,
                f"{100 * report.relative:.1f}%",
            )
        )
    print(f"baseline makespan: {baseline.makespan:g}")
    for method, makespan, absolute, relative in rows:
        print(
            f"{method}: makespan={makespan:g} overhead={absolute:g} "
            f"({relative})"
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .analysis.advisor import advise

    problem = _load_any(args.problem)
    advice = advise(problem, attempts=max(args.best_of, 8))
    print(advice.render())
    return 0 if advice.feasible and advice.certified else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    problem = _load_any(args.problem)
    result = _run_method_args(problem, args.method, args)
    report = certify_fault_tolerance(result.schedule)
    print(
        f"method: {args.method}  K={problem.failures}  "
        f"certified: {report.ok}"
    )
    lint_report = report.to_lint_report()
    if getattr(args, "prove", False):
        # Extend the dead-from-start certificate to every crash date
        # with the FT4xx delivery proof: either "tolerates K by
        # construction, proven for all ≤K subsets" or "refuted, see
        # reproducer".  The prover run is shared with the rules via
        # proof_for().
        from .lint.proof.rules import proof_for
        from .lint.registry import get_rule

        proof = proof_for(result.schedule)
        print(proof.summary_line())
        for rule_id in ("FT401", "FT402", "FT404"):
            lint_report.extend(get_rule(rule_id).findings(result.schedule))
    if not lint_report.ok:
        print(render_text(lint_report))
    # Error-level findings gate the exit code so `repro certify` can be
    # used directly as a CI check.
    return lint_report.gate()


def _prove_problem_spec(args: argparse.Namespace) -> dict:
    """The reproducer ``problem`` spec for the prove target."""
    if getattr(args, "paper", ""):
        kind = (
            "paper-first"
            if args.paper in ("fig17", "first")
            else "paper-second"
        )
        return {"kind": kind, "failures": 1}
    return {"kind": "file", "path": args.problem}


def _cmd_prove(args: argparse.Namespace) -> int:
    from .lint.proof import (
        check_scenario,
        counterexample_reproducer,
        prove_delivery,
        save_proof,
    )

    if args.repro:
        # Statically re-derive a committed reproducer's verdict: the
        # automaton interprets its exact crash dates — no simulation.
        from .obs.campaign import (
            load_reproducer,
            problem_from_spec,
            scenario_from_dict,
        )

        try:
            reproducer = load_reproducer(args.repro)
            problem = problem_from_spec(reproducer["problem"])
            scenario = scenario_from_dict(reproducer["scenario"])
            method = reproducer["method"]
        except (OSError, KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        schedule = _run_method(problem, method, 0).schedule
        crashes = {crash.processor: crash.at for crash in scenario.crashes}
        check = check_scenario(schedule, crashes)
        verdict = "refuted" if check.refuted else "delivered"
        print(
            f"static replay of {args.repro}: method {method}, "
            f"crashes {', '.join(f'{p}@{t:g}' for p, t in sorted(crashes.items()))}"
        )
        print(f"crash class: {check.label}  verdict: {verdict}")
        if check.refuted:
            print(f"missing outputs: {', '.join(check.missing_outputs)}")
            for line in check.undelivered:
                print(f"undelivered: {line}")
            if check.counterexample is not None and check.counterexample.narrative:
                print(check.counterexample.narrative)
        expect = reproducer.get("expect", "fail")
        agrees = check.refuted == (expect == "fail")
        print(
            f"reproducer expects {expect!r}: the static verdict "
            f"{'agrees' if agrees else 'DISAGREES'}"
        )
        if args.counterexample and check.counterexample is not None:
            spec = dict(reproducer["problem"])
            _write_reproducer(
                counterexample_reproducer(check.counterexample, spec, method),
                args.counterexample,
            )
        # Mirror `campaign run --repro`: exit 1 when the reproducer's
        # scenario fails.
        return 1 if check.refuted else 0

    problem = _resolve_problem(args)
    method = args.method if args.method != "auto" else _auto_method(problem)
    result = _run_method_args(problem, method, args)
    proof = prove_delivery(
        result.schedule, max_evals_per_subset=args.max_evals
    )
    print(
        f"method: {method}  K={problem.failures}  "
        f"semantics: {proof.semantics}  detection: {proof.detection}"
    )
    print(proof.summary_line())
    print(
        f"subsets checked: {proof.subsets_checked}  "
        f"pruned: {proof.subsets_pruned}  "
        f"evaluations: {proof.evaluations}  "
        f"classes collapsed: {proof.classes_collapsed}  "
        f"witness depth: {proof.witness_depth}"
    )
    note_metric(
        "proof.subsets_checked", float(proof.subsets_checked),
        direction="exact", kind="counter",
    )
    note_metric(
        "proof.evaluations", float(proof.evaluations),
        direction="exact", kind="counter",
    )
    by_status = {"proven": [], "local": [], "refuted": []}
    for witness in proof.dependencies:
        by_status.setdefault(witness.status, []).append(witness.dependency)
    print(
        "dependencies: "
        + "  ".join(
            f"{status}={len(deps)}" for status, deps in by_status.items()
        )
    )
    for dep in by_status["refuted"]:
        print(f"refuted: {dep}")
    if proof.verdict == "UNSAFE" and proof.counterexample is not None:
        cx = proof.counterexample
        crashes = ", ".join(
            f"{p}@{t:.6g}" for p, t in sorted(cx.crashes.items())
        )
        print(f"counterexample: class {cx.label} (witness crashes {crashes})")
        if cx.narrative:
            print(cx.narrative)
    if args.out:
        save_proof(proof, args.out)
        print(f"wrote proof artifact to {args.out}")
    if args.counterexample:
        if proof.counterexample is None:
            print(
                "no counterexample to export "
                f"(verdict {proof.verdict})",
                file=sys.stderr,
            )
        else:
            _write_reproducer(
                counterexample_reproducer(
                    proof.counterexample, _prove_problem_spec(args), method
                ),
                args.counterexample,
            )
    return 0 if proof.verdict == "SAFE" else 1


def _write_reproducer(reproducer: dict, path: str) -> None:
    from .obs.campaign import save_reproducer

    save_reproducer(reproducer, path)
    print(
        f"wrote campaign-replayable counterexample to {path} "
        "(replay: repro campaign run --repro)"
    )


def _auto_method(problem: Problem) -> str:
    """The paper's architecture-appropriateness rule (Section 5.6)."""
    if problem.failures == 0:
        return "baseline"
    return "solution1" if problem.architecture.has_bus else "solution2"


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.id}  {rule.severity.value:7s} {rule.scope.value:8s} "
                f"{rule.name}: {rule.summary}"
            )
        return 0

    targets: List[tuple] = [(path, _load_any(path)) for path in args.problems]
    if args.paper in ("first", "all"):
        targets.append(("paper:first", examples.first_example_problem(failures=1)))
    if args.paper in ("second", "all"):
        targets.append(("paper:second", examples.second_example_problem(failures=1)))
    if not targets:
        print("nothing to lint: give PROBLEM files and/or --paper", file=sys.stderr)
        return 2

    suppress = {
        rule_id.strip()
        for chunk in args.suppress
        for rule_id in chunk.split(",")
        if rule_id.strip()
    }
    merged = LintReport()
    for label, problem in targets:
        config = LintConfig.make(suppress=suppress, source=label)
        report = lint_problem(problem, config)
        method = args.method
        if method == "auto":
            method = _auto_method(problem)
        if method != "none" and not report.errors:
            # A schedule is only meaningful on a sane problem; errors
            # in the FT1xx pass skip the FT2xx pass for this target.
            result = _run_method_args(problem, method, args)
            report.merge(lint_schedule(result.schedule, config))
        merged.merge(report)

    if args.format == "json":
        output = report_to_json(merged)
    elif args.format == "sarif":
        output = report_to_sarif(merged)
    else:
        output = render_text(merged)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.format} lint report to {args.output}")
    else:
        print(output)

    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    return merged.gate(fail_on)


def _cmd_profile(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    method = args.method if args.method != "auto" else _auto_method(problem)
    scenario = _parse_crash(args.crash) if args.crash else FailureScenario.none()

    if args.obs_off:
        result = _run_method_args(problem, method, args)
        trace = simulate(result.schedule, scenario)
        print(
            f"method: {method}  makespan: {result.makespan:g}  "
            f"response: {trace.response_time:g}  completed: {trace.completed}"
        )
        print("instrumentation disabled (--obs-off): nothing recorded")
        return 0

    with instrumented() as instr:
        with instr.span("profile", method=method):
            with instr.timer("profile.schedule_s"):
                result = _run_method_args(problem, method, args)
            with instr.timer("profile.simulate_s"):
                for _ in range(max(args.iterations, 1)):
                    trace = simulate(result.schedule, scenario)
    print(
        f"method: {method}  makespan: {result.makespan:g}  "
        f"response: {trace.response_time:g}  completed: {trace.completed}"
    )
    print()
    print(instr.registry.render_table(title="metrics"))
    print()
    print(instr.tracer.render_summary())
    if args.obs_out:
        _export_trace(instr, args.obs_out)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            if args.metrics_out.endswith(".csv"):
                handle.write(instr.registry.to_csv())
            else:
                json.dump(instr.registry.to_dict(), handle, indent=2)
                handle.write("\n")
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    method = args.method if args.method != "auto" else _auto_method(problem)
    result = _run_method_args(problem, method, args)

    if args.diff:
        # Behavioural mode: align two simulated runs of this schedule
        # and explain where (and why) they diverge.
        from .obs.causal import diff_traces

        try:
            nominal_scenario = _parse_scenario(args.diff[0])
            faulty_scenario = _parse_scenario(args.diff[1])
        except ValueError as error:
            print(f"error: bad crash spec: {error}", file=sys.stderr)
            return 2
        schedule = result.schedule
        try:
            nominal = simulate(schedule, nominal_scenario)
            faulty = simulate(schedule, faulty_scenario)
        except ValueError as error:
            print(f"error: bad crash spec: {error}", file=sys.stderr)
            return 2
        diff = diff_traces(nominal, faulty, schedule, faulty_scenario)
        print(f"method: {method}  makespan: {result.makespan:g}")
        print(diff.render())
        return 0

    log = result.decisions
    if log is None or not log.records:
        print(
            f"error: the {method} schedule carries no decision log, so "
            "there is nothing to explain (decision logging is attached "
            "by the list schedulers at run time; schedules loaded from "
            "JSON or built by hand never have one)",
            file=sys.stderr,
        )
        return 1
    if args.op:
        try:
            print(log.rationale(args.op).render(verbose=args.full))
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        print(f"method: {method}  makespan: {result.makespan:g}")
        print(log.render(verbose=args.full))
        messages = result.schedule.inter_processor_message_count()
        if messages == 0:
            print(
                "communications: none — every data dependency stays "
                "processor-local, so there are no frames and no timeout "
                "ladders to explain"
            )
        else:
            print(
                f"communications: {messages} inter-processor message(s) "
                f"scheduled across "
                f"{len(result.schedule.problem.architecture.link_names)} "
                "link(s)"
            )
    return 0


def _cmd_causal(args: argparse.Namespace) -> int:
    from .obs.causal import analyze_trace, critical_overlay, save_report

    if args.repro:
        # Replay a committed reproducer: its problem, method, scenario.
        from .obs.campaign import (
            load_reproducer,
            problem_from_spec,
            scenario_from_dict,
        )

        try:
            reproducer = load_reproducer(args.repro)
            problem = problem_from_spec(reproducer["problem"])
            scenario = scenario_from_dict(reproducer["scenario"])
            method = reproducer["method"]
        except (OSError, KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        problem = _resolve_problem(args)
        method = args.method if args.method != "auto" else _auto_method(problem)
        try:
            scenario = _parse_scenario(",".join(args.crash))
        except ValueError as error:
            print(f"error: bad crash spec: {error}", file=sys.stderr)
            return 2

    result = _run_method_args(problem, method, args)
    schedule = result.schedule
    try:
        trace = simulate(schedule, scenario)
        nominal = None
        if scenario.crashes or scenario.link_crashes or scenario.known_failed:
            nominal = simulate(schedule, FailureScenario.none())
    except ValueError as error:
        print(f"error: bad crash spec: {error}", file=sys.stderr)
        return 2
    report = analyze_trace(
        trace, schedule, scenario=scenario, nominal=nominal, method=method
    )

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render(full=args.full))
        if args.gantt:
            print()
            print(critical_overlay(trace, report))
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out} ({report.to_dict()['schema']})")
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    rows: List[ComparisonRow] = []
    if args.which in ("first", "all"):
        problem = examples.first_example_problem(failures=1)
        solution = schedule_solution1(problem)
        baseline = expected.find_seed_for_makespan(
            SyndexScheduler, problem, expected.FIG19_BASELINE_MAKESPAN
        )
        rows.append(
            ComparisonRow(
                "Fig 17 Solution-1 makespan (bus)",
                expected.FIG17_SOLUTION1_MAKESPAN,
                round(solution.makespan, 6),
            )
        )
        rows.append(
            ComparisonRow(
                "Fig 19 baseline makespan (bus)",
                expected.FIG19_BASELINE_MAKESPAN,
                round(baseline.makespan, 6) if baseline else None,
                note="recovered by tie-break seed search",
            )
        )
        if args.gantt:
            print(render_schedule(solution.schedule))
    if args.which in ("second", "all"):
        problem = examples.second_example_problem(failures=1)
        solution = schedule_solution2(problem)
        baseline = expected.find_seed_for_makespan(
            SyndexScheduler, problem, expected.FIG24_BASELINE_MAKESPAN
        )
        rows.append(
            ComparisonRow(
                "Fig 22 Solution-2 makespan (p2p)",
                expected.FIG22_SOLUTION2_MAKESPAN,
                round(solution.makespan, 6),
            )
        )
        rows.append(
            ComparisonRow(
                "Fig 24 baseline makespan (p2p)",
                expected.FIG24_BASELINE_MAKESPAN,
                round(baseline.makespan, 6) if baseline else None,
                note="recovered by tie-break seed search",
            )
        )
        if args.gantt:
            print(render_schedule(solution.schedule))
    print(comparison_table(rows, title="paper vs. this reproduction"))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .paper.figures import write_all_figures

    written = write_all_figures(args.outdir)
    for artifact, path in sorted(written.items()):
        print(f"{artifact:16s} -> {path}")
    print(f"{len(written)} artifacts written to {args.outdir}")
    return 0


def _cmd_export_example(args: argparse.Namespace) -> int:
    problem = (
        examples.first_example_problem(failures=1)
        if args.which == "first"
        else examples.second_example_problem(failures=1)
    )
    if str(args.file).endswith(".aaa"):
        save_problem_text(problem, args.file)
    else:
        save_problem(problem, args.file)
    print(f"wrote {args.which} paper example to {args.file}")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .obs.bench import run_suite
    from .obs.ledger import save_slice

    try:
        records = run_suite(
            args.suite,
            repeat=max(args.repeat, 1),
            only=args.only or None,
            label=args.label,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = args.out or f"BENCH_{args.suite}.jsonl"
    save_slice(records, out)
    print(f"wrote {len(records)} scenario(s) [suite {args.suite}] to {out}")
    for record in records:
        if record.verdict == "fail":
            print(f"  {record.scenario}: FAILED ({record.error})")
        else:
            print(
                f"  {record.scenario}: {len(record.metrics)} metrics, "
                f"wall {record.wall_s:.4f}s"
            )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .obs.ledger import compare_records, load_slice

    try:
        baseline = load_slice(args.baseline)
        current_path = args.current or f"BENCH_{baseline[0].suite}.jsonl"
        current = load_slice(current_path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = compare_records(
        baseline,
        current,
        include_timings=not args.no_timings,
        noise_scale=args.noise_scale,
    )
    print(report.render())
    return report.gate(fail_on_removed=not args.allow_removed)


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from .obs.ledger import load_slice, render_dashboard

    paths = list(args.slices)
    if not paths:
        paths = sorted(str(p) for p in Path(".").glob("BENCH_*.jsonl"))
    if not paths:
        print(
            "error: no slices given and no BENCH_*.jsonl found here; "
            "run `repro bench run` first",
            file=sys.stderr,
        )
        return 2
    try:
        records = [record for path in paths for record in load_slice(path)]
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    document = render_dashboard(records, title=args.title)
    with open(args.out, "w") as handle:
        handle.write(document)
    print(f"wrote dashboard over {len(paths)} slice(s) to {args.out}")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from .obs.bench import all_scenarios, scenarios_for_suite

    scenarios = (
        scenarios_for_suite(args.suite) if args.suite else all_scenarios()
    )
    for scenario in scenarios:
        suites = ",".join(scenario.suites)
        print(f"{scenario.name}  [{suites}]  {scenario.description}")
    print(f"{len(scenarios)} scenario(s)")
    return 0


def _campaign_targets(args: argparse.Namespace) -> List[tuple]:
    """``(label, problem, method, problem_spec)`` rows for a campaign run.

    ``--suite smoke`` is the CI entry point: both paper examples under
    their architecture-appropriate method.  Otherwise one target from
    the positional file or ``--paper`` alias.
    """
    if getattr(args, "suite", ""):
        if args.suite != "smoke":
            raise SystemExit(
                f"error: unknown campaign suite {args.suite!r} "
                "(available: smoke)"
            )
        return [
            (
                "paper:first",
                examples.first_example_problem(failures=1),
                "solution1",
                {"kind": "paper-first", "failures": 1},
            ),
            (
                "paper:second",
                examples.second_example_problem(failures=1),
                "solution2",
                {"kind": "paper-second", "failures": 1},
            ),
        ]
    problem = _resolve_problem(args)
    method = args.method if args.method != "auto" else _auto_method(problem)
    if getattr(args, "paper", ""):
        label = f"paper:{args.paper}"
        kind = (
            "paper-first"
            if args.paper in ("fig17", "first")
            else "paper-second"
        )
        spec = {"kind": kind, "failures": 1}
    else:
        label = args.problem
        spec = {"kind": "file", "path": args.problem}
    return [(label, problem, method, spec)]


def _write_campaign_artifacts(directory: str, results) -> int:
    """Reproducer + annotated Gantt per failing scenario; file count."""
    from .obs.campaign import save_reproducer

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = 0
    for result in results:
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", result.label)
        for index, outcome in enumerate(result.failed):
            stem = f"{slug}_fail{index}"
            if outcome.reproducer is not None:
                save_reproducer(outcome.reproducer, target / f"{stem}.json")
                written += 1
            if outcome.diagnosis is not None:
                gantt = outcome.diagnosis.get("gantt", "")
                text = outcome.diagnosis.get("text", "")
                (target / f"{stem}_gantt.txt").write_text(
                    gantt + "\n\n" + text + "\n"
                )
                written += 1
    return written


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .obs.campaign import (
        CampaignScenario,
        class_key,
        enumerate_space,
        execute_scenario,
        load_reproducer,
        problem_from_spec,
        run_campaign,
        save_campaigns,
        scenario_from_dict,
    )
    from .obs.campaign.model import CampaignResult
    from .obs.campaign.report import render_html_page
    from .obs.campaign.report import render_text as render_campaign_text
    from .core.timeline import event_boundaries
    from .sim.values import reference_outputs

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    results = []
    if args.repro:
        # Replay one committed reproducer: schedule, execute, diagnose.
        try:
            reproducer = load_reproducer(args.repro)
            problem = problem_from_spec(reproducer["problem"])
            scenario = scenario_from_dict(reproducer["scenario"])
        except (OSError, KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        method = reproducer["method"]
        result_schedule = _run_method(problem, method, 0).schedule
        boundaries = event_boundaries(result_schedule)
        outcome = execute_scenario(
            result_schedule,
            CampaignScenario(
                scenario=scenario,
                key=class_key(scenario, boundaries),
                origin="reproducer",
            ),
            reference_outputs(problem.algorithm),
            problem_spec=reproducer["problem"],
            method=method,
            minimize=not args.no_minimize,
        )
        result = CampaignResult(
            label=args.repro,
            method=method,
            failures=problem.failures,
            enumerated=[outcome.key],
            outcomes=[outcome],
        )
        expect = reproducer.get("expect", "fail")
        print(
            f"reproducer {args.repro}: scenario {outcome.name} -> "
            f"{outcome.status} (expected {expect})"
        )
        if outcome.diagnosis is not None:
            print()
            print(outcome.diagnosis["text"])
        results = [result]
    else:
        try:
            targets = _campaign_targets(args)
        except SystemExit as error:
            print(error, file=sys.stderr)
            return 2
        for label, problem, method, spec in targets:
            note_problem(problem)
            schedule = _run_method_args(problem, method, args).schedule
            space = enumerate_space(
                schedule,
                failures=problem.failures,
                seed=args.seed,
                subset_samples=args.subset_samples,
                random_strata=args.random_strata,
            )
            if args.max_scenarios and space.truncate(args.max_scenarios):
                # The enumerated universe stays intact so coverage
                # honestly reports how much was left unexercised.
                print(
                    f"note: {label}: capped at {args.max_scenarios} "
                    "scenarios; class coverage will be partial"
                )
            result = run_campaign(
                schedule,
                space,
                label=label,
                method=method,
                failures=problem.failures,
                jobs=args.jobs,
                problem_spec=spec,
                minimize=not args.no_minimize,
            )
            results.append(result)
        print(render_campaign_text(results), end="")

    if args.out:
        save_campaigns(results, args.out)
        print(f"wrote campaign result to {args.out}")
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html_page(results))
        print(f"wrote campaign HTML report to {args.html}")
    if args.artifacts:
        written = _write_campaign_artifacts(args.artifacts, results)
        print(f"wrote {written} failure artifact(s) to {args.artifacts}/")
    executed = sum(len(result.outcomes) for result in results)
    if executed:
        passed = sum(len(result.passed) for result in results)
        note_metric(
            "campaign.pass_rate", passed / executed,
            direction="higher", noise=0.0,
        )
        note_metric(
            "campaign.scenarios", float(executed),
            direction="exact", kind="counter",
        )
    return 0 if all(result.all_passed for result in results) else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .obs.campaign import load_campaigns
    from .obs.campaign.report import render_html_page
    from .obs.campaign.report import render_text as render_campaign_text

    try:
        results = load_campaigns(args.campaign)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_campaign_text(results), end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_html_page(results))
        print(f"wrote campaign HTML report to {args.out}")
    return 0 if all(result.all_passed for result in results) else 1


# ----------------------------------------------------------------------
# The run ledger: the global recording hook and the `runs` commands
# ----------------------------------------------------------------------
_LEDGER_OFF = ("0", "false", "no", "off")
_LEDGER_ON = ("1", "true", "yes", "on")


def _ledger_dir(args: argparse.Namespace) -> Optional[str]:
    """The ledger directory to record into, or ``None`` when off.

    Precedence: ``--ledger-dir DIR`` > ``--ledger`` (default dir) >
    ``REPRO_LEDGER`` (off-words disable; on-words pick the default
    dir; anything else *is* the dir).  ``repro runs`` itself is never
    recorded — querying history must not grow it.
    """
    if getattr(args, "command", "") == "runs":
        return None
    from .obs.ledger import DEFAULT_LEDGER_DIR

    if getattr(args, "ledger_dir", ""):
        return args.ledger_dir
    if getattr(args, "ledger", False):
        return DEFAULT_LEDGER_DIR
    env = os.environ.get("REPRO_LEDGER", "").strip()
    if not env or env.lower() in _LEDGER_OFF:
        return None
    if env.lower() in _LEDGER_ON:
        return DEFAULT_LEDGER_DIR
    return env


def _ledger_command(args: argparse.Namespace) -> str:
    """``schedule``, ``bench run``, ``campaign run``, ... for the record."""
    parts = [args.command]
    for attribute in ("bench_command", "campaign_command"):
        sub = getattr(args, attribute, "")
        if sub:
            parts.append(sub)
    return " ".join(parts)


def _ledger_argv(argv: Optional[List[str]]) -> List[str]:
    """The recorded argv: the real one minus the ledger's own flags
    (two runs differing only in where they logged are the same run)."""
    raw = list(argv) if argv is not None else list(sys.argv[1:])
    cleaned: List[str] = []
    skip = False
    for token in raw:
        if skip:
            skip = False
            continue
        if token == "--ledger":
            continue
        if token in ("--ledger-dir", "--ledger-label"):
            skip = True
            continue
        if token.startswith("--ledger-dir=") or token.startswith(
            "--ledger-label="
        ):
            continue
        cleaned.append(token)
    return cleaned


def _main_with_ledger(
    args: argparse.Namespace, argv: Optional[List[str]], ledger_dir: str
) -> int:
    """Run the command inside a recording ledger session.

    The whole command executes under a (nested-safe) instrumentation
    session so the record carries the full obs-registry snapshot; the
    exit code is captured even when the command leaves via
    ``SystemExit`` (argument errors, unreadable files).
    """
    from .obs.ledger import LedgerStore, ledger_session

    store = LedgerStore(ledger_dir)
    exit_code = 2
    obs_snapshot: dict = {}
    error: Optional[SystemExit] = None
    with ledger_session(
        store,
        _ledger_command(args),
        argv=_ledger_argv(argv),
        label=getattr(args, "ledger_label", ""),
    ) as session:
        try:
            with instrumented() as instr:
                with _obs_session(args):
                    exit_code = int(args.func(args) or 0)
                obs_snapshot = instr.registry.to_dict()
        except SystemExit as exc:
            code = exc.code
            # Match the interpreter: None exits 0, any non-int
            # message (e.g. ``SystemExit("error: ...")``) exits 1.
            exit_code = (
                code if isinstance(code, int)
                else 0 if code is None else 1
            )
            error = exc
        session.finish(exit_code, obs_snapshot)
        print(
            f"ledger: recorded run {session.record.run_id} "
            f"in {store.root}",
            file=sys.stderr,
        )
    if error is not None:
        raise error
    return exit_code


def _runs_store(args: argparse.Namespace):
    """The store a ``runs`` command reads: --dir > REPRO_LEDGER > default."""
    from .obs.ledger import DEFAULT_LEDGER_DIR, LedgerStore

    directory = getattr(args, "dir", "")
    if not directory:
        env = os.environ.get("REPRO_LEDGER", "").strip()
        if env and env.lower() not in _LEDGER_OFF + _LEDGER_ON:
            directory = env
    return LedgerStore(directory or DEFAULT_LEDGER_DIR)


def _runs_filter(args: argparse.Namespace):
    from .obs.ledger import RunFilter

    return RunFilter(
        problem=getattr(args, "problem", ""),
        command=getattr(args, "cmd", ""),
        verdict=getattr(args, "verdict", ""),
        since=getattr(args, "since", ""),
        until=getattr(args, "until", ""),
        label=getattr(args, "label", ""),
        limit=getattr(args, "limit", None),
    )


def _error_text(error: BaseException) -> str:
    """``str(KeyError)`` wraps its message in quotes; unwrap it."""
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


def _runs_records(args: argparse.Namespace):
    """(store, filtered records) for a ``runs`` command; exits 2 on a
    missing/corrupt ledger."""
    from .obs.ledger import filter_records

    store = _runs_store(args)
    try:
        records = list(store.records())
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"error: {_error_text(error)}")
    return store, filter_records(records, _runs_filter(args))


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from .obs.ledger import runs_table

    store, records = _runs_records(args)
    if not records:
        print(
            f"no runs recorded in {store.root} (record one with "
            "`repro --ledger COMMAND ...` or REPRO_LEDGER=1)"
        )
        return 0
    print(runs_table(records).render())
    print(f"{len(records)} run(s) in {store.root}")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from .obs.ledger import render_record

    store = _runs_store(args)
    try:
        record = store.load(args.run)
    except (KeyError, ValueError) as error:
        print(f"error: {_error_text(error)}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_record(record))
    return 0


def _cmd_runs_query(args: argparse.Namespace) -> int:
    _, records = _runs_records(args)
    for record in records:
        print(record.to_json_line())
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from .obs.ledger import diff_records

    store = _runs_store(args)
    baseline_ref, current_ref = args.baseline, args.current
    if not baseline_ref and not current_ref:
        newest = store.run_ids()[-2:]
        if len(newest) < 2:
            print(
                "error: need two recorded runs to diff "
                f"({len(newest)} in {store.root})",
                file=sys.stderr,
            )
            return 2
        baseline_ref, current_ref = newest
    elif not current_ref:
        print(
            "error: runs diff takes zero run ids (newest two) or two",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = store.load(baseline_ref)
        current = store.load(current_ref)
    except (KeyError, ValueError) as error:
        print(f"error: {_error_text(error)}", file=sys.stderr)
        return 2
    if (
        baseline.problem_hash
        and current.problem_hash
        and baseline.problem_hash != current.problem_hash
    ):
        print(
            "note: the two runs hash different problems "
            f"({baseline.problem_hash[:12]} vs "
            f"{current.problem_hash[:12]}); metric deltas compare "
            "apples to oranges",
        )
    if baseline.command != current.command:
        print(
            f"note: the two runs ran different commands "
            f"({baseline.command!r} vs {current.command!r}); metric "
            "deltas compare apples to oranges",
        )
    report = diff_records(
        baseline,
        current,
        include_timings=args.timings,
        noise_scale=args.noise_scale,
    )
    print(report.render())
    return report.gate(fail_on_removed=not args.allow_removed)


def _cmd_runs_drift(args: argparse.Namespace) -> int:
    from .obs.ledger import detect_drift

    _, records = _runs_records(args)
    report = detect_drift(
        records,
        include_timings=args.timings,
        noise_scale=args.noise_scale,
    )
    print(report.render())
    return 0 if report.clean else 1


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    store = _runs_store(args)
    report = store.gc(
        keep=args.keep, before=args.before, dry_run=args.dry_run
    )
    print(report.render())
    for run_id in report.removed_records:
        print(f"  record {run_id}")
    for digest in report.removed_blobs:
        print(f"  blob sha256:{digest[:16]}")
    return 0


def _cmd_runs_report(args: argparse.Namespace) -> int:
    from .obs.ledger import render_dashboard

    store, records = _runs_records(args)
    if not records:
        print(
            f"error: no runs recorded in {store.root}; record some "
            "with `repro --ledger COMMAND ...` first",
            file=sys.stderr,
        )
        return 2
    document = render_dashboard(records, title=args.title)
    with open(args.out, "w") as handle:
        handle.write(document)
    print(f"wrote ledger dashboard over {len(records)} run(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scheduler",
        description=(
            "Fault-tolerant static scheduling for real-time distributed "
            "embedded systems (Girault/Lavarenne/Sighireanu/Sorel, "
            "ICDCS 2001)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO (-v) or DEBUG (-vv) from the repro loggers to "
        "stderr; put the flag before the subcommand",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="log errors only (overrides -v)",
    )
    parser.add_argument(
        "--ledger", action="store_true",
        help="record this invocation in the append-only run ledger "
        "(.repro/ledger/); query with `repro runs`",
    )
    parser.add_argument(
        "--ledger-dir", default="", metavar="DIR",
        help="record into DIR instead of .repro/ledger (implies "
        "--ledger); REPRO_LEDGER=1|DIR works without flags",
    )
    parser.add_argument(
        "--ledger-label", default="", metavar="TEXT",
        help="free-form label stored on the ledger record",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_method: bool = True) -> None:
        p.add_argument("problem", help="problem JSON file")
        if with_method:
            p.add_argument(
                "--method",
                choices=sorted(_METHODS),
                default="solution1",
                help="scheduling heuristic",
            )
        p.add_argument(
            "--best-of",
            type=int,
            default=0,
            metavar="N",
            help="explore N tie-break seeds and keep the best makespan",
        )
        add_perf_flags(p)

    def add_perf_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the --best-of seed exploration "
            "(any N produces the identical winner)",
        )
        p.add_argument(
            "--no-eval-cache", action="store_true",
            help="disable the incremental placement-evaluation cache "
            "(schedules are bitwise identical either way; this is a "
            "debugging/benchmarking escape hatch)",
        )

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--obs-out", metavar="FILE", default="",
            help="run under instrumentation and write a Chrome trace-event "
            "JSON to FILE (load in ui.perfetto.dev)",
        )
        p.add_argument(
            "--obs-off", action="store_true",
            help="force instrumentation off (wins over --obs-out)",
        )

    def add_paper_target(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "problem", nargs="?", default="",
            help="problem file (.json or .aaa); omit with --paper",
        )
        p.add_argument(
            "--paper", choices=sorted(_PAPER_ALIASES), default="",
            help="use a bundled paper example instead of a file "
            "(fig17/first = bus, fig22/second = point-to-point)",
        )
        p.add_argument(
            "--method",
            choices=("auto", *sorted(_METHODS)),
            default="auto",
            help="scheduling heuristic (auto follows the paper's "
            "architecture rule)",
        )
        p.add_argument(
            "--best-of", type=int, default=0, metavar="N",
            help="explore N tie-break seeds and keep the best makespan",
        )
        add_perf_flags(p)

    p_schedule = sub.add_parser("schedule", help="produce a static schedule")
    add_common(p_schedule)
    add_obs_flags(p_schedule)
    p_schedule.add_argument("--gantt", action="store_true")
    p_schedule.add_argument("--json", action="store_true")
    p_schedule.add_argument(
        "--svg", metavar="FILE", default="",
        help="write an SVG timing diagram to FILE",
    )
    p_schedule.add_argument(
        "--executive", action="store_true",
        help="print the generated per-processor executive macro-code",
    )
    p_schedule.set_defaults(func=_cmd_schedule)

    p_sim = sub.add_parser("simulate", help="simulate iterations with crashes")
    add_common(p_sim)
    add_obs_flags(p_sim)
    p_sim.add_argument(
        "--crash", default="", metavar="PROC[@T]",
        help="crash scenario, e.g. P2@3.0 (or P2 for dead-from-start)",
    )
    p_sim.add_argument("--iterations", type=int, default=1)
    p_sim.add_argument(
        "--period", type=float, default=0.0, metavar="T",
        help="pipelined mode: release one iteration every T time units "
        "(baseline/solution2 schedules)",
    )
    p_sim.add_argument("--gantt", action="store_true")
    p_sim.add_argument(
        "--svg", metavar="FILE", default="",
        help="write an SVG timing diagram of the (last) iteration",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="overheads vs the baseline")
    add_common(p_cmp, with_method=False)
    add_obs_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_cert = sub.add_parser("certify", help="exhaustive K-fault certification")
    add_common(p_cert)
    add_obs_flags(p_cert)
    p_cert.add_argument(
        "--prove", action="store_true",
        help="also run the FT4xx static delivery prover: 'tolerates K "
        "by construction, proven for all <=K subsets' or 'refuted, see "
        "reproducer' (error findings gate the exit code)",
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_prove = sub.add_parser(
        "prove",
        help="static <=K-crash delivery proof: SAFE with a "
        "machine-checkable proof artifact, or UNSAFE with a "
        "campaign-replayable counterexample — no simulation",
    )
    add_paper_target(p_prove)
    add_obs_flags(p_prove)
    p_prove.add_argument(
        "--out", default="", metavar="FILE",
        help="write the repro.lint.proof/1 proof artifact JSON",
    )
    p_prove.add_argument(
        "--counterexample", default="", metavar="FILE",
        help="export the canonical counterexample as a "
        "repro.obs.campaign.reproducer/1 JSON "
        "(replay: repro campaign run --repro FILE)",
    )
    p_prove.add_argument(
        "--repro", default="", metavar="FILE",
        help="statically re-check one committed reproducer's exact "
        "crash dates instead of proving the whole <=K space "
        "(exit 1 while it still fails, like campaign run --repro)",
    )
    p_prove.add_argument(
        "--max-evals", type=int, default=8000, metavar="N",
        help="per-subset budget of automaton runs (one per decision-tree "
        "leaf) before the verdict degrades to UNPROVEN (soundness is never "
        "sacrificed)",
    )
    p_prove.set_defaults(func=_cmd_prove)

    p_profile = sub.add_parser(
        "profile",
        help="schedule + simulate under instrumentation: metrics table, "
        "span summary, Chrome trace",
    )
    add_paper_target(p_profile)
    add_obs_flags(p_profile)
    p_profile.add_argument(
        "--crash", default="", metavar="PROC[@T]",
        help="simulate under a crash scenario, e.g. P2@3.0",
    )
    p_profile.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help="simulate N iterations (more spans/metrics to look at)",
    )
    p_profile.add_argument(
        "--metrics-out", metavar="FILE", default="",
        help="also write the metrics registry to FILE "
        "(.csv for CSV, anything else for JSON)",
    )
    p_profile.set_defaults(func=_cmd_profile, obs_managed=True)

    p_explain = sub.add_parser(
        "explain",
        help="why each operation landed on its processor: pressures, "
        "runner-ups, tie-breaks, timeouts",
    )
    add_paper_target(p_explain)
    p_explain.add_argument(
        "--op", default="", metavar="NAME",
        help="explain one operation instead of the whole schedule",
    )
    p_explain.add_argument(
        "--full", action="store_true",
        help="include every candidate evaluation and timeout entry",
    )
    p_explain.add_argument(
        "--diff", nargs=2, metavar=("NOMINAL", "FAULTY"), default=None,
        help="simulate two crash scenarios ('none' or specs like "
        "'P2@3.0,P4@1.5') and explain where the runs diverge",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_causal = sub.add_parser(
        "causal",
        help="causal analysis of a simulated iteration: event graph, "
        "critical-path attribution, latency breakdown, fault cost",
    )
    add_paper_target(p_causal)
    p_causal.add_argument(
        "--crash", action="append", default=[], metavar="PROC[@T]",
        help="crash scenario, e.g. P2@3.0 (repeat for multiple crashes); "
        "any crash also triggers the fault-cost and diff analyses "
        "against the failure-free run",
    )
    p_causal.add_argument(
        "--repro", default="", metavar="FILE",
        help="replay a committed reproducer JSON (its problem, method "
        "and crash scenario) instead of PROBLEM/--paper/--crash",
    )
    p_causal.add_argument("--json", action="store_true")
    p_causal.add_argument(
        "--out", default="", metavar="FILE",
        help="write the analysis as a repro.obs.causal/1 JSON artifact",
    )
    p_causal.add_argument(
        "--gantt", action="store_true",
        help="overlay the critical path onto the trace Gantt chart",
    )
    p_causal.add_argument(
        "--full", action="store_true",
        help="include the per-event local-slack table",
    )
    p_causal.set_defaults(func=_cmd_causal)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: FT1xx problem lints + FT2xx schedule lints",
    )
    p_lint.add_argument(
        "problems", nargs="*", metavar="PROBLEM",
        help="problem files (.json or .aaa); may be repeated",
    )
    p_lint.add_argument(
        "--paper", choices=("first", "second", "all", "none"), default="none",
        help="also lint the bundled paper example problem(s)",
    )
    p_lint.add_argument(
        "--method",
        choices=("auto", "none", *sorted(_METHODS)),
        default="auto",
        help="heuristic for the schedule lints (auto follows the paper's "
        "architecture rule; none lints the problem only)",
    )
    p_lint.add_argument(
        "--best-of", type=int, default=0, metavar="N",
        help="explore N tie-break seeds before linting the schedule",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (sarif suits CI code-scanning uploads)",
    )
    p_lint.add_argument(
        "--suppress", action="append", default=[], metavar="IDS",
        help="comma-separated rule IDs to silence (repeatable)",
    )
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    p_lint.add_argument(
        "--output", metavar="FILE", default="",
        help="write the report to FILE instead of stdout",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule reference (ID, severity, scope) and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_advise = sub.add_parser(
        "advise", help="full design advice: heuristic choice, bounds, "
        "certification, deadline verdicts"
    )
    add_common(p_advise, with_method=False)
    p_advise.set_defaults(func=_cmd_advise)

    p_paper = sub.add_parser("paper", help="reproduce the paper's figures")
    p_paper.add_argument("--which", choices=("first", "second", "all"), default="all")
    p_paper.add_argument("--gantt", action="store_true")
    p_paper.set_defaults(func=_cmd_paper)

    p_figures = sub.add_parser(
        "figures", help="regenerate every paper figure into a directory"
    )
    p_figures.add_argument("outdir")
    p_figures.set_defaults(func=_cmd_figures)

    p_export = sub.add_parser(
        "export-example", help="write a paper example as a problem JSON"
    )
    p_export.add_argument("file")
    p_export.add_argument("--which", choices=("first", "second"), default="first")
    p_export.set_defaults(func=_cmd_export_example)

    p_bench = sub.add_parser(
        "bench",
        help="longitudinal benchmark tracking: run suites into "
        "BENCH_*.jsonl slices, gate on regressions, render dashboards",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    pb_run = bench_sub.add_parser(
        "run", help="run a scenario suite and write a slice"
    )
    pb_run.add_argument(
        "--suite", default="quick",
        help="suite tag to run (default: quick; see `bench list`)",
    )
    pb_run.add_argument(
        "--only", action="append", default=[], metavar="SUBSTR",
        help="run only scenarios whose name contains SUBSTR (repeatable)",
    )
    pb_run.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="repeat each scenario N times, keep the best wall clock",
    )
    pb_run.add_argument(
        "--out", default="", metavar="FILE",
        help="slice path (default: BENCH_<suite>.jsonl)",
    )
    pb_run.add_argument(
        "--label", default="", metavar="TEXT",
        help="free-form label stored on the records (e.g. a tag name)",
    )
    pb_run.set_defaults(func=_cmd_bench_run)

    pb_cmp = bench_sub.add_parser(
        "compare",
        help="diff a current slice against a baseline; exit 1 on "
        "regression verdicts or a failed scenario (the CI gate)",
    )
    pb_cmp.add_argument("baseline", help="baseline BENCH_*.jsonl")
    pb_cmp.add_argument(
        "current", nargs="?", default="",
        help="current slice (default: BENCH_<suite>.jsonl of the "
        "baseline's suite, in the working directory)",
    )
    pb_cmp.add_argument(
        "--no-timings", action="store_true",
        help="ignore wall-clock metrics (compare across machines)",
    )
    pb_cmp.add_argument(
        "--noise-scale", type=float, default=1.0, metavar="X",
        help="multiply every noise threshold by X (2.0 = half as strict)",
    )
    pb_cmp.add_argument(
        "--allow-removed", action="store_true",
        help="do not fail when a tracked metric disappeared",
    )
    pb_cmp.set_defaults(func=_cmd_bench_compare)

    pb_report = bench_sub.add_parser(
        "report", help="render slices as an HTML/SVG dashboard"
    )
    pb_report.add_argument(
        "slices", nargs="*", metavar="SLICE",
        help="BENCH_*.jsonl files, any order (default: glob the "
        "working directory)",
    )
    pb_report.add_argument(
        "--out", default="bench_dashboard.html", metavar="FILE",
        help="output HTML path",
    )
    pb_report.add_argument(
        "--title", default="repro bench dashboard",
        help="dashboard page title",
    )
    pb_report.set_defaults(func=_cmd_bench_report)

    pb_list = bench_sub.add_parser(
        "list", help="print the registered scenarios and their suites"
    )
    pb_list.add_argument(
        "--suite", default="", help="restrict to one suite tag"
    )
    pb_list.set_defaults(func=_cmd_bench_list)

    p_campaign = sub.add_parser(
        "campaign",
        help="fault-injection campaigns: enumerate the crash-scenario "
        "space, execute every equivalence class, diagnose failures, "
        "report coverage",
    )
    campaign_sub = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    pc_run = campaign_sub.add_parser(
        "run",
        help="enumerate and execute a schedule's crash-scenario space; "
        "exit 1 on failing verdicts (the CI gate)",
    )
    add_paper_target(pc_run)
    pc_run.add_argument(
        "--suite", default="", metavar="NAME",
        help="run a predefined target suite instead of one problem "
        "(available: smoke = both paper examples)",
    )
    pc_run.add_argument(
        "--repro", default="", metavar="FILE",
        help="replay one committed reproducer JSON instead of "
        "enumerating (prints its diagnosis; exit 1 when it fails)",
    )
    pc_run.add_argument(
        "--seed", type=int, default=0,
        help="seed of the stratified and random enumerators",
    )
    pc_run.add_argument(
        "--subset-samples", type=int, default=3, metavar="N",
        help="stratified crash-time samples per ≤K processor subset",
    )
    pc_run.add_argument(
        "--random-strata", type=int, default=8, metavar="N",
        help="seeded FailureScenario.random draws appended to the space",
    )
    pc_run.add_argument(
        "--max-scenarios", type=int, default=0, metavar="N",
        help="cap the executed scenarios (coverage reports the gap)",
    )
    pc_run.add_argument(
        "--no-minimize", action="store_true",
        help="skip greedy crash-set minimization of failing scenarios",
    )
    pc_run.add_argument(
        "--out", default="", metavar="FILE",
        help="write the campaign result JSON (repro.obs.campaign/1)",
    )
    pc_run.add_argument(
        "--html", default="", metavar="FILE",
        help="write the campaign report as a standalone HTML page",
    )
    pc_run.add_argument(
        "--artifacts", default="", metavar="DIR",
        help="write per-failure reproducers and annotated Gantt charts",
    )
    pc_run.set_defaults(func=_cmd_campaign_run)

    pc_report = campaign_sub.add_parser(
        "report", help="re-render a saved campaign result"
    )
    pc_report.add_argument("campaign", help="CAMPAIGN.json file")
    pc_report.add_argument(
        "--out", default="", metavar="FILE",
        help="write the report as a standalone HTML page",
    )
    pc_report.set_defaults(func=_cmd_campaign_report)

    p_runs = sub.add_parser(
        "runs",
        help="query the append-only run ledger: list/show/query history, "
        "diff two runs, scan for drift, gc, render the dashboard",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def add_runs_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir", default="", metavar="DIR",
            help="ledger directory (default: $REPRO_LEDGER if it names "
            "a directory, else .repro/ledger)",
        )

    def add_runs_filters(p: argparse.ArgumentParser) -> None:
        add_runs_dir(p)
        p.add_argument(
            "--problem", default="", metavar="HASH",
            help="keep runs whose problem hash starts with HASH",
        )
        p.add_argument(
            "--command", dest="cmd", default="", metavar="CMD",
            help="keep runs of one command (e.g. 'schedule', 'bench run')",
        )
        p.add_argument(
            "--verdict", choices=("ok", "fail"), default="",
            help="keep runs with this outcome",
        )
        p.add_argument(
            "--since", default="", metavar="TIME",
            help="keep runs created at or after TIME (ISO-8601 UTC, "
            "prefixes work: 2026-08)",
        )
        p.add_argument(
            "--until", default="", metavar="TIME",
            help="keep runs created at or before TIME",
        )
        p.add_argument(
            "--label", default="", metavar="TEXT",
            help="keep runs whose label contains TEXT",
        )
        p.add_argument(
            "--limit", type=int, default=None, metavar="N",
            help="keep only the newest N matching runs",
        )

    pr_list = runs_sub.add_parser(
        "list", help="one line per recorded run, oldest first"
    )
    add_runs_filters(pr_list)
    pr_list.set_defaults(func=_cmd_runs_list)

    pr_show = runs_sub.add_parser(
        "show", help="everything one record knows (hashes, metrics, "
        "artifacts)"
    )
    add_runs_dir(pr_show)
    pr_show.add_argument(
        "run", help="run id or unambiguous prefix (see `runs list`)"
    )
    pr_show.add_argument(
        "--json", action="store_true",
        help="print the raw repro.obs.ledger/1 record",
    )
    pr_show.set_defaults(func=_cmd_runs_show)

    pr_query = runs_sub.add_parser(
        "query", help="matching records as JSON lines (machine-readable "
        "`runs list`)"
    )
    add_runs_filters(pr_query)
    pr_query.set_defaults(func=_cmd_runs_query)

    pr_diff = runs_sub.add_parser(
        "diff",
        help="compare two runs with the direction-aware record "
        "comparator; exit 1 on regression (the CI gate)",
    )
    add_runs_dir(pr_diff)
    pr_diff.add_argument(
        "baseline", nargs="?", default="",
        help="baseline run id or prefix (default: second-newest run)",
    )
    pr_diff.add_argument(
        "current", nargs="?", default="",
        help="current run id or prefix (default: newest run)",
    )
    pr_diff.add_argument(
        "--timings", action="store_true",
        help="include wall-clock metrics (off by default: identical "
        "configs must diff clean)",
    )
    pr_diff.add_argument(
        "--noise-scale", type=float, default=1.0, metavar="X",
        help="multiply every noise threshold by X (2.0 = half as strict)",
    )
    pr_diff.add_argument(
        "--allow-removed", action="store_true",
        help="do not fail when a tracked metric disappeared",
    )
    pr_diff.set_defaults(func=_cmd_runs_diff)

    pr_drift = runs_sub.add_parser(
        "drift",
        help="scan every (problem, command) lineage for drift between "
        "consecutive runs; exit 1 when any drifted",
    )
    add_runs_filters(pr_drift)
    pr_drift.add_argument(
        "--timings", action="store_true",
        help="include wall-clock metrics in the drift verdicts",
    )
    pr_drift.add_argument(
        "--noise-scale", type=float, default=1.0, metavar="X",
        help="multiply every noise threshold by X",
    )
    pr_drift.set_defaults(func=_cmd_runs_drift)

    pr_gc = runs_sub.add_parser(
        "gc", help="apply retention: drop old records, sweep "
        "unreferenced blobs"
    )
    add_runs_dir(pr_gc)
    pr_gc.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="retain only the newest N records",
    )
    pr_gc.add_argument(
        "--before", default="", metavar="TIME",
        help="drop records created before TIME (ISO-8601 UTC)",
    )
    pr_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting",
    )
    pr_gc.set_defaults(func=_cmd_runs_gc)

    pr_report = runs_sub.add_parser(
        "report", help="render the run history as the longitudinal "
        "HTML dashboard"
    )
    add_runs_filters(pr_report)
    pr_report.add_argument(
        "--out", default="ledger_dashboard.html", metavar="FILE",
        help="output HTML path",
    )
    pr_report.add_argument(
        "--title", default="repro run ledger",
        help="dashboard page title",
    )
    pr_report.set_defaults(func=_cmd_runs_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    ledger_dir = _ledger_dir(args)
    if ledger_dir is not None:
        return _main_with_ledger(args, argv, ledger_dir)
    with _obs_session(args):
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
