"""Tests of the benchmark itself (about five minutes).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from checks import PAPER_PINS, Checks, check_paper_pins  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402

TIME_UNITS = ("s", "us")


def run(*args: str, hash_seed: str = "0", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )


def result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def exact(metrics: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] not in TIME_UNITS and name != "peak_rss_mb"
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    first, second = (
        result(run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", "1", hash_seed=h))
        for h in ("1", "2")
    )
    assert first["correct"] and second["correct"]
    assert exact(first["metrics"]) == exact(second["metrics"])


def test_end_to_end_exact_metrics_repeat_and_ignore_the_seed():
    runs = [
        result(run("--workload", "compile-p2p132", "--seed", seed, "--seconds", "1",
                   "--trace", "0", hash_seed=seed))
        for seed in ("3", "3", "4")
    ]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert exact(runs[0]["metrics"]) == exact(runs[1]["metrics"]) == exact(runs[2]["metrics"])


def test_seed_changes_the_problem_hashes():
    for name in workloads.WORKLOADS:
        first = [p.hash for p in workloads.build_inputs(name, 5).problems]
        again = [p.hash for p in workloads.build_inputs(name, 5).problems]
        other = [p.hash for p in workloads.build_inputs(name, 6).problems]
        held_out = [p.hash for p in workloads.build_inputs(name, 5, family=1).problems]
        assert first == again
        assert not set(first) & set(other)
        assert not set(first) & set(held_out)


def test_wrong_expected_makespan_raises_the_error_rate():
    checks = Checks()
    check_paper_pins(checks)
    assert checks.attempted and checks.error_rate == 0
    wrong = Checks()
    check_paper_pins(wrong, {**PAPER_PINS, "fig17.solution1": PAPER_PINS["fig17.solution1"] + 0.1})
    assert wrong.error_rate > 0


def test_speed_probe_samples_only_while_open():
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    taken = len(probe.samples)
    assert taken and probe.slowdown() > 0
    time.sleep(0.1)
    assert len(probe.samples) == taken
    with pytest.raises(RuntimeError):
        SpeedProbe().slowdown()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    process = run("--workload", "verify-bus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
