"""The ``repro.obs.bench`` scenario registry under pytest-benchmark.

The registration shim: the scenarios the ``repro bench`` CLI records
into ``BENCH_*.jsonl`` slices are executed here through the
pytest-benchmark harness, so both runners share one definition — a
scenario edited in :mod:`repro.obs.bench.scenarios` changes the
paper-table benchmark and the longitudinal record together, and the quantities the dashboard
tracks are the quantities a green benchmark run certifies.
"""

import math

import pytest

from repro.analysis.report import Table
from repro.obs.bench import run_scenario, scenarios_for_suite
from repro.paper import expected

from conftest import emit

QUICK = scenarios_for_suite("quick")

#: The paper quantities pinned to registry metrics: any drift here is
#: the same drift `repro bench compare` would gate on in CI.
EXPECTED_QUALITY = {
    ("schedule.fig17.solution1", "makespan"): expected.FIG17_SOLUTION1_MAKESPAN,
    ("schedule.fig22.solution2", "makespan"): expected.FIG22_SOLUTION2_MAKESPAN,
    ("overhead.fig17.vs_baseline", "baseline_makespan"):
        expected.FIG19_BASELINE_MAKESPAN,
    ("overhead.fig17.vs_baseline", "overhead_abs"):
        expected.FIG17_SOLUTION1_MAKESPAN - expected.FIG19_BASELINE_MAKESPAN,
}


@pytest.mark.parametrize("scn", QUICK, ids=[s.name for s in QUICK])
def test_registry_scenario(benchmark, scn):
    """Every quick-suite scenario runs, yields finite metrics, and
    reproduces its pinned paper quantities."""
    run = benchmark.pedantic(
        lambda: run_scenario(scn), rounds=1, iterations=1
    )
    assert run.metrics, f"{scn.name} produced no metrics"
    table = Table(
        headers=("metric", "value", "unit", "kind", "direction"),
        title=f"registry scenario {scn.name}",
    )
    for name, metric in sorted(run.metrics.items()):
        assert math.isfinite(metric.value), f"{scn.name}:{name} not finite"
        table.add(name, metric.value, metric.unit, metric.kind,
                  metric.direction)
    emit(table)
    for (scenario_name, metric_name), value in EXPECTED_QUALITY.items():
        if scenario_name == scn.name:
            measured = run.metrics[metric_name].value
            assert measured == pytest.approx(value, abs=1e-6), (
                f"{scn.name}:{metric_name} drifted from the paper: "
                f"{measured} != {value}"
            )


def test_quick_suite_covers_both_examples():
    """The quick suite must keep tracking both paper examples."""
    names = {s.name for s in QUICK}
    assert any("fig17" in name for name in names)
    assert any("fig22" in name for name in names)
