"""``repro.obs.bench`` — longitudinal benchmark tracking.

:mod:`repro.obs` measures one run; this package turns the
experiments under ``benchmarks/`` into named, parameterized scenarios
(one registry shared with the pytest-benchmark harness) and executes
them under :mod:`repro.obs` instrumentation.  Each scenario run is one
:class:`~repro.obs.ledger.LedgerRecord`; a suite run is written as a
``BENCH_<suite>.jsonl`` slice of records.  Comparing slices and
rendering their trajectory is the run ledger's job
(:func:`~repro.obs.ledger.compare_records`,
:func:`~repro.obs.ledger.render_dashboard`).

Surface: ``repro bench run | compare | report | list`` — ``compare``
is exit-code gated like ``repro lint``, so CI fails on a quality or
complexity regression.  See ``docs/benchmarks.md``.

This subpackage imports :mod:`repro.core`/:mod:`repro.sim` (for the
scenario bodies) and :mod:`repro.obs.ledger`, and therefore is **not**
imported from ``repro.obs.__init__`` — the rest of ``repro.obs`` stays
a leaf the schedulers can depend on.
"""

from .registry import (
    Scenario,
    all_scenarios,
    get_scenario,
    scenario,
    scenarios_for_suite,
    suite_names,
)
from .runner import run_scenario, run_suite

__all__ = [
    "Scenario",
    "all_scenarios",
    "get_scenario",
    "run_scenario",
    "run_suite",
    "scenario",
    "scenarios_for_suite",
    "suite_names",
]
