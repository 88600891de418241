"""Benchmark driver: one workload, one process, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-p2p132 --seed 1 --seconds 58 --trace 0

``--trace 0`` repeats untraced pipeline passes for ``--seconds`` and
reports the end-to-end metrics (medians over passes; pass times are
host-normalised, see ``hostspeed.py``).  ``--trace 1``
runs a traced pass between two untraced ones, prints the per-layer
table and reports the per-layer metrics.  Either way the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: ``setup_s`` is the median over this many fresh processes.
SETUP_PROBES = 3


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program from it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {source / 'repro'}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    import repro

    if source.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {source}")


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args: argparse.Namespace) -> float:
    """Median host-normalised time from process start to inputs ready
    over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--family", str(args.family), "--setup-probe",
            ],
            capture_output=True, text=True, timeout=170, check=True,
        )
        ready, slowdown = map(float, child.stdout.split()[-2:])
        samples.append((ready - started) / slowdown)
    return statistics.median(samples)


def result_line(checks, metrics: dict, kind: str) -> str:
    """The result object, with the units ``BENCHMARK.json`` declares for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} != declared {sorted(units)}")
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    })


def untraced(args, inputs, checks, setup_s: float) -> dict:
    import workloads
    from checks import check_pass
    from hostspeed import SpeedProbe

    # Only a summary of each pass is kept, so peak RSS is that of one
    # pass whatever the number of passes.
    walls, normalised, slowdowns, stages, quality = [], [], [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + walls[-1] <= args.seconds:
        gc.collect()
        with SpeedProbe() as probe:
            result = workloads.run_pass(inputs)
        check_pass(checks, inputs, result)
        walls.append(result.wall_s)
        slowdowns.append(probe.slowdown())
        normalised.append(result.wall_s / slowdowns[-1])
        stages.append({**result.stages, "check_s": result.check_s})
        quality.append(workloads.quality(result))
        del result
    for name in quality[0]:
        checks.check(
            all(q[name] == quality[0][name] for q in quality),
            f"{name} differs between passes",
        )
    print(
        f"passes: {len(walls)}  median wall: {statistics.median(walls):.4f} s  "
        f"median host slowdown: {statistics.median(slowdowns):.4f}"
    )
    print(
        "stage medians: "
        + "  ".join(
            f"{stage}={statistics.median(s[stage] for s in stages):.4f}"
            for stage in stages[0]
        )
    )
    return {
        "setup_s": setup_s,
        "wall_norm_s": statistics.median(normalised),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality[0],
    }


def traced(args, inputs, checks) -> dict:
    import tracing
    import workloads
    from checks import check_pass
    from repro.lint import proof
    from repro.obs.runtime import instrumented

    # Untraced passes before and after the traced one: the overhead is
    # measured against their mean, so drift of the machine's speed
    # during the run does not land on the overhead alone.
    before = workloads.run_pass(inputs)
    check_pass(checks, inputs, before)
    recorder = tracing.SpanRecorder()
    with tracing.patched(recorder):
        with instrumented() as session:
            recorder.outer = session
            with recorder.span("pass") as root:
                result = workloads.run_pass(inputs)
        # The K+1 probe's cost: each proof again without it, in a
        # session of its own so the pass's counters stay untouched.
        with instrumented(), recorder.span("probe") as probe:
            for run in result.runs:
                if run.proof is not None:
                    # Looked up now, so the call goes through the patch.
                    proof.prove_delivery(
                        run.schedules["solution1"][0].schedule, probe_beyond=False
                    )
    check_pass(checks, inputs, result)
    after = workloads.run_pass(inputs)
    check_pass(checks, inputs, after)
    untraced_wall_s = (before.wall_s + after.wall_s) / 2
    counters = session.registry.counter_value

    def proving(top) -> float:
        return sum(
            (s.duration for s in recorder.under(top) if s.name == "lint.proof.prove"), 0.0
        )

    metrics, names = tracing.per_layer(
        recorder, root, counters, result,
        untraced_wall_s=untraced_wall_s,
        beyond_s=proving(root) - proving(probe),
        nominal_gap=workloads.nominal_response_gap(result),
    )
    for ok, what in tracing.consistency(recorder, root, counters, result):
        checks.check(ok, f"trace consistency: {what}")
    print(f"per-layer self time, {args.workload} (seed {args.seed}, traced pass):")
    print(tracing.render_table(names, root.duration))
    print(
        f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
        f"(traced {root.duration:.4f} s, untraced {before.wall_s:.4f} s before "
        f"and {after.wall_s:.4f} s after)"
    )
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--family", type=int, default=0,
        help="offset added to every generator seed (0: the pinned problems; "
        "use another value as a held-out problem set)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    from hostspeed import SpeedProbe

    with SpeedProbe() as probe:
        import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        inputs = workloads.build_inputs(args.workload, args.seed, args.family)
        ready = time.time()
    if args.setup_probe:
        print(repr(ready), repr(probe.slowdown()))
        return 0

    from checks import Checks, check_paper_pins

    setup_s = measure_setup(args) if not args.trace else 0.0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "family": args.family,
        "problem_hashes": {p.name: p.hash for p in inputs.problems},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(),
    }))
    checks = Checks()
    check_paper_pins(checks)
    if args.trace:
        metrics = traced(args, inputs, checks)
    else:
        metrics = untraced(args, inputs, checks, setup_s)
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"error_rate: {checks.error_rate:.6g} ({checks.failed}/{checks.attempted})")
    print(result_line(checks, metrics, "per_layer" if args.trace else "end_to_end"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
