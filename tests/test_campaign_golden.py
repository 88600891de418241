"""Golden campaign outcomes: every simulated verdict pinned bit for bit.

The simulator's event kernel and the executive's per-run lookups may be
made faster, but no campaign may see a different event, frame or
verdict.  For each case this test pins, per scenario outcome, a digest
of its name, status, reasons, ``repr(response_time)``, detection
count, takeover latency and work counters; a digest of every
diagnosis text; and the total ``sim.engine.events`` the campaign
processed (the work of every simulation it ran, minimisation
included).  Each simulation resumes from the schedule's failure-free
run, so the total counts only the steps after each scenario's first
diverging step: the failure-free run itself, which
``Simulator.advance`` replays, is not counted.

Cases: the three bus problems of the ``verify-bus`` benchmark workload
under Solution 1 (a K=1 schedule and two K=2 schedules, one of them
the fixed ROADMAP delivery gap; all three are SAFE and their
campaigns pass), plus ``repro campaign run --suite smoke``.

Regenerate the fixture only when the simulated output is meant to
change::

    PYTHONPATH=src python tests/test_campaign_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.solution1 import Solution1Scheduler
from repro.graphs.generators import random_bus_problem
from repro.obs import instrumented
from repro.obs.campaign import enumerate_space, load_campaigns, run_campaign
from repro.sim.engine import Simulator

FIXTURE = Path(__file__).parent / "fixtures" / "campaign_golden.json"

#: label -> bus problem (the ``verify-bus`` workload's generator settings).
BUS_CASES = {
    "bus20k1": dict(operations=20, processors=5, failures=1, seed=1),
    "bus12k2": dict(operations=12, processors=4, failures=2, seed=1),
    "bus10k2": dict(operations=10, processors=4, failures=2, seed=0),
}
CASES = sorted(BUS_CASES) + ["smoke"]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome_digest(outcome) -> str:
    return _digest(
        {
            "name": outcome.name,
            "status": outcome.status,
            "reasons": list(outcome.reasons),
            "response_time": repr(outcome.response_time),
            "detections": outcome.detections,
            "takeover_latency": repr(outcome.takeover_latency),
            "work": dict(outcome.work),
        }
    )


def _counting_run(counts):
    """``Simulator.run`` that also adds its events to ``counts``."""
    original = Simulator.run

    def run(self, until=None):
        with instrumented() as session:
            try:
                return original(self, until)
            finally:
                counts.append(session.registry.counter_value("sim.engine.events"))

    return run


def _campaigns(label: str):
    if label == "smoke":
        with tempfile.TemporaryDirectory() as directory:
            out = str(Path(directory) / "campaign.json")
            cli_main(["campaign", "run", "--suite", "smoke", "--out", out])
            return load_campaigns(out)
    problem = random_bus_problem(**BUS_CASES[label])
    schedule = Solution1Scheduler(problem).run().schedule
    space = enumerate_space(schedule, failures=problem.failures)
    return [
        run_campaign(
            schedule,
            space,
            label=label,
            method="solution1",
            failures=problem.failures,
            jobs=1,
        )
    ]


def case_record(label: str) -> dict:
    """The pinned facts of one case (see the module docstring)."""
    counts: list = []
    patch = pytest.MonkeyPatch()
    patch.setattr(Simulator, "run", _counting_run(counts))
    try:
        results = _campaigns(label)
    finally:
        patch.undo()
    record = {"sim.engine.events": int(sum(counts))}
    for result in results:
        record[result.label] = {
            "outcomes": [_outcome_digest(o) for o in result.outcomes],
            "failed": len(result.failed),
            "diagnosis_sha256": _digest(
                [
                    o.diagnosis["text"]
                    for o in result.outcomes
                    if o.diagnosis is not None
                ]
            ),
        }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("label", CASES)
def test_campaign_outcomes_are_bit_identical(label, golden):
    assert case_record(label) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_campaign_golden.py --regenerate")
    records = {label: case_record(label) for label in CASES}
    FIXTURE.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print("wrote %s (%d cases)" % (FIXTURE, len(records)))
