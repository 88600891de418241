"""Execute registered scenarios under instrumentation into records.

Each scenario runs inside its own :func:`repro.obs.instrumented`
session, so obs counters start from zero and a scenario's metrics
cannot bleed into its neighbor's.  Wall clock is measured around the
whole scenario body as min-of-``repeat`` (the standard way to shave
scheduler jitter off a microbenchmark); the quality/counter metrics
come from the *last* repeat — they are deterministic, so any repeat
reports the same numbers.

Every scenario becomes one :class:`~repro.obs.ledger.LedgerRecord`
(command ``bench run``, the scenario name as its comparison row), and
a suite run is the list of them — written as a ``BENCH_<suite>.jsonl``
slice by :func:`repro.obs.ledger.save_slice`.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable, List, Optional

from ..environment import environment_fingerprint, utc_now
from ..ledger import LedgerRecord, Metric, new_run_id
from ..runtime import instrumented
from .registry import Scenario, scenarios_for_suite

__all__ = ["run_scenario", "run_suite"]

LOGGER = logging.getLogger(__name__)

#: Relative noise tolerated on wall-clock metrics before the
#: comparator gates — generous, because CI machines differ wildly.
WALL_NOISE = 0.75


def _record(scenario: Scenario) -> LedgerRecord:
    return LedgerRecord(
        run_id=new_run_id(),
        created=utc_now(),
        command="bench run",
        scenario=scenario.name,
        params=dict(scenario.params),
    )


def run_scenario(scenario: Scenario, repeat: int = 1) -> LedgerRecord:
    """Run one scenario ``repeat`` times; returns its record.

    The record's metrics always contain a ``wall_s`` timing metric
    (best of the repeats, also the record's ``wall_s``) next to
    whatever the scenario function measured.
    """
    record = _record(scenario)
    best_wall = float("inf")
    metrics = {}
    for _ in range(max(repeat, 1)):
        with instrumented() as obs:
            started = time.perf_counter()
            metrics = scenario.fn(obs, **scenario.params)
            wall = time.perf_counter() - started
        best_wall = min(best_wall, wall)
    record.metrics = dict(metrics)
    record.metrics.setdefault(
        "wall_s",
        Metric(best_wall, unit="s", direction="lower", kind="timing",
               noise=WALL_NOISE),
    )
    record.wall_s = best_wall
    return record


def run_suite(
    suite: str,
    repeat: int = 1,
    only: Optional[Iterable[str]] = None,
    label: str = "",
) -> List[LedgerRecord]:
    """Run every scenario of ``suite``; one record per scenario.

    ``only`` (scenario-name substrings) narrows the selection without
    changing the suite tag recorded on the records.
    """
    selected: List[Scenario] = scenarios_for_suite(suite)
    if only:
        wanted = tuple(only)
        selected = [
            s for s in selected if any(w in s.name for w in wanted)
        ]
    if not selected:
        raise ValueError(f"no scenarios selected for suite {suite!r}")
    environment = environment_fingerprint()
    records = []
    for scenario in selected:
        LOGGER.info("bench: running %s", scenario.name)
        try:
            record = run_scenario(scenario, repeat=repeat)
        except Exception as error:
            # One broken scenario must not lose the rest of the run:
            # keep a failed record and go on.  The comparator gates on
            # a current record that failed.
            LOGGER.warning(
                "bench: scenario %s failed: %s: %s",
                scenario.name, type(error).__name__, error,
            )
            record = _record(scenario)
            record.exit_code = 1
            record.error = f"{type(error).__name__}: {error}"
        else:
            LOGGER.info(
                "bench: %s -> %d metrics, wall %.4fs",
                scenario.name, len(record.metrics), record.wall_s,
            )
        record.suite, record.label = suite, label
        record.environment = environment
        records.append(record)
    return records
