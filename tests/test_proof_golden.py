"""Golden proof artifacts: the prover's output is pinned bit for bit.

The prover's speed work (the region sweep's resumed runs, the
early-exit K+1 probe, the event kernel) must not change a single byte
of what it proves.  For each seeded case this test hashes
``ProofResult.to_dict()`` (the artifact ``repro prove --out`` writes,
minus its ``environment`` fingerprint) and the ``check_scenario``
result of the first counterexample, and compares them with the
committed fixture.

Regenerate the fixture only when the proof artifact is meant to
change::

    PYTHONPATH=src python tests/test_proof_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import paper
from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import check_scenario, prove_delivery

FIXTURE = Path(__file__).parent / "fixtures" / "proof_golden.json"

#: label -> (problem factory, scheduler).
CASES = {
    "bus20-k1-s1": (
        lambda: random_bus_problem(operations=20, processors=5, failures=1, seed=1),
        schedule_solution1,
    ),
    "bus12-k2-s1": (
        lambda: random_bus_problem(operations=12, processors=4, failures=2, seed=1),
        schedule_solution1,
    ),
    "bus10-k2-s0": (
        lambda: random_bus_problem(operations=10, processors=4, failures=2, seed=0),
        schedule_solution1,
    ),
    "paper-first-s1": (
        lambda: paper.first_example_problem(failures=1),
        schedule_solution1,
    ),
    "paper-second-s2": (
        lambda: paper.second_example_problem(failures=1),
        schedule_solution2,
    ),
    "p2p10-k1-s2": (
        lambda: random_p2p_problem(operations=10, processors=4, failures=1, seed=2),
        schedule_solution2,
    ),
    "p2p12-k1-s4": (
        lambda: random_p2p_problem(operations=12, processors=5, failures=1, seed=4),
        schedule_solution2,
    ),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_record(label: str) -> dict:
    """The pinned facts of one case: artifact hash plus a readable head."""
    make_problem, scheduler = CASES[label]
    schedule = scheduler(make_problem()).schedule
    proof = prove_delivery(schedule)
    artifact = proof.to_dict()
    artifact.pop("environment", None)
    record = {
        "verdict": proof.verdict,
        "evaluations": proof.evaluations,
        "beyond": proof.beyond,
        "proof_sha256": _digest(artifact),
        "scenario": None,
    }
    cx = proof.counterexample
    if cx is not None:
        check = check_scenario(schedule, cx.crashes)
        record["scenario"] = {
            "refuted": check.refuted,
            "label": check.label,
            "sha256": _digest(
                {
                    "refuted": check.refuted,
                    "class_key": [list(pair) for pair in check.class_key],
                    "label": check.label,
                    "missing_outputs": list(check.missing_outputs),
                    "undelivered": list(check.undelivered),
                    "counterexample": (
                        check.counterexample.to_dict()
                        if check.counterexample is not None
                        else None
                    ),
                }
            ),
        }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_proof_artifact_is_bit_identical(label, golden):
    assert case_record(label) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_proof_golden.py --regenerate")
    records = {label: case_record(label) for label in sorted(CASES)}
    FIXTURE.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print("wrote %s (%d cases)" % (FIXTURE, len(records)))
