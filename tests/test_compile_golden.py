"""Golden compile output: schedules and simulated traces pinned bit for bit.

The compile path (routing, comm planning, the list schedulers, the
frozen schedule's queries and the executive) may be made faster, but
it must not change a single byte of what it produces.  For each case
this test pins, per method:

* ``io.schedule_hash`` of the schedule;
* a digest of the frozen ``schedule.comms`` list, in its order (the
  hash above sorts the slots, so it would miss a reordering);
* a digest of the simulated trace — frames, executions, detections
  and ``output_times`` — with no crash, with P1 dead from start, and
  with P2 crashing in the middle of the iteration.

A second fixture pins the other readers of the compiled executive, per
case and method: a digest of the ``render_executive`` macro-code text
and, for the baseline and Solution 2 (the pipeline rejects Solution 1),
a digest of the pipelined completion dates at two periods.

The architectures cover a fully connected point-to-point network
(one candidate route per pair), a mixed network (a bus, an express
link beside it, parallel links and pairs with several minimum-hop
paths, where routes are ranked per dependency) and a single bus.

Regenerate the fixtures only when the compiled output is meant to
change::

    PYTHONPATH=src python tests/test_compile_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.codegen import render_executive
from repro.core import schedule_baseline, schedule_solution1, schedule_solution2
from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.syndex import SyndexScheduler
from repro.graphs.architecture import Architecture
from repro.graphs.constraints import CommunicationTable
from repro.graphs.generators import (
    layered_dag,
    random_bus_problem,
    random_p2p_problem,
    random_problem,
)
from repro.graphs.io import schedule_hash
from repro.graphs.problem import Problem
from repro.sim import FailureScenario, simulate
from repro.sim.pipeline import simulate_pipelined

FIXTURE = Path(__file__).parent / "fixtures" / "compile_golden.json"
EXECUTIVE_FIXTURE = Path(__file__).parent / "fixtures" / "executive_golden.json"

METHODS = {
    "baseline": schedule_baseline,
    "solution1": schedule_solution1,
    "solution2": schedule_solution2,
}

#: Per-link scale of the mixed architecture's transfer times, so that
#: parallel links and alternative paths differ in cost.
MIXED_LINK_SCALE = {"can": 1.0, "express": 0.25, "l45a": 0.8, "l45b": 0.5, "l35": 0.6}


def mixed_architecture() -> Architecture:
    """A bus P1-P4 with an express link P1-P2 beside it, and P5 behind
    two parallel links to P4 plus one link to P3 (so P1..P2 reach P5
    over two minimum-hop paths)."""
    arch = Architecture("mixed")
    for proc in ("P1", "P2", "P3", "P4", "P5"):
        arch.add_processor(proc)
    arch.add_bus("can", ["P1", "P2", "P3", "P4"])
    arch.add_link("express", "P1", "P2")
    arch.add_link("l45a", "P4", "P5")
    arch.add_link("l45b", "P4", "P5")
    arch.add_link("l35", "P3", "P5")
    return arch


def mixed_problem(failures: int, seed: int = 3) -> Problem:
    algorithm = layered_dag([2, 3, 3, 2], density=0.6, seed=seed)
    base = random_problem(algorithm, mixed_architecture(), failures, seed)
    comm = CommunicationTable()
    for (dep, link), duration in base.communication.entries.items():
        comm.set_duration(dep, link, round(duration * MIXED_LINK_SCALE[link], 3))
    return Problem(
        algorithm=base.algorithm,
        architecture=base.architecture,
        execution=base.execution,
        communication=comm,
        failures=failures,
        name=f"mixed-k{failures}",
    )


#: label -> problem factory.
CASES = {
    "p2p-k1": lambda: random_p2p_problem(operations=14, processors=5, failures=1, seed=2),
    "p2p-k2": lambda: random_p2p_problem(operations=12, processors=5, failures=2, seed=4),
    "mixed-k1": lambda: mixed_problem(failures=1),
    "mixed-k2": lambda: mixed_problem(failures=2),
    "bus-k1": lambda: random_bus_problem(operations=14, processors=4, failures=1, seed=1),
    "bus-k2": lambda: random_bus_problem(operations=12, processors=4, failures=2, seed=5),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_digest(trace) -> str:
    return _digest(
        {
            "frames": [asdict(frame) for frame in trace.frames],
            "executions": [asdict(record) for record in trace.executions],
            "detections": [asdict(record) for record in trace.detections],
            "output_times": trace.output_times,
        }
    )


def _scenarios(schedule):
    return {
        "none": FailureScenario.none(),
        "P1-dead": FailureScenario.dead_from_start("P1"),
        "P2-mid": FailureScenario.crash("P2", at=schedule.makespan / 2),
    }


def case_record(label: str) -> dict:
    """The pinned facts of one case: per method, schedule and trace digests."""
    problem = CASES[label]()
    record = {}
    for method, scheduler in METHODS.items():
        schedule = scheduler(problem).schedule
        record[method] = {
            "makespan": schedule.makespan,
            "schedule_hash": schedule_hash(schedule),
            "comms_sha256": _digest([asdict(slot) for slot in schedule.comms]),
            "traces": {
                name: _trace_digest(simulate(schedule, scenario))
                for name, scenario in _scenarios(schedule).items()
            },
        }
    return record


#: Pipelined periods as fractions of the makespan (one period equal to
#: the makespan, one that overlaps iterations), and the run length.
PIPELINE_PERIODS = (1.0, 0.5)
PIPELINE_ITERATIONS = 4


def executive_record(label: str) -> dict:
    """Per method, digests of the generated executive text and, where
    the pipeline is defined, of the pipelined completion dates."""
    problem = CASES[label]()
    record = {}
    for method, scheduler in METHODS.items():
        schedule = scheduler(problem).schedule
        text = render_executive(schedule)
        entry = {
            "executive_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        if method != "solution1":
            entry["pipeline"] = {
                str(fraction): _digest(
                    simulate_pipelined(
                        schedule, schedule.makespan * fraction, PIPELINE_ITERATIONS
                    ).completion_times
                )
                for fraction in PIPELINE_PERIODS
            }
        record[method] = entry
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def executive_golden():
    return json.loads(EXECUTIVE_FIXTURE.read_text())


def test_fixture_covers_every_case(golden, executive_golden):
    assert sorted(golden) == sorted(CASES)
    assert sorted(executive_golden) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_compile_output_is_bit_identical(label, golden):
    assert case_record(label) == golden[label]


@pytest.mark.parametrize("label", sorted(CASES))
def test_executive_and_pipeline_are_bit_identical(label, executive_golden):
    assert executive_record(label) == executive_golden[label]


#: The scheduler classes behind ``METHODS``.
SCHEDULERS = {
    "baseline": SyndexScheduler,
    "solution1": Solution1Scheduler,
    "solution2": Solution2Scheduler,
}


def _run_record(problem: Problem, method: str, use_eval_cache: bool) -> dict:
    result = SCHEDULERS[method](problem, use_eval_cache=use_eval_cache).run()
    schedule = result.schedule
    return {
        "schedule_hash": schedule_hash(schedule),
        "comms_sha256": _digest([asdict(slot) for slot in schedule.comms]),
        "decisions": (result.decisions.records, result.decisions.timeouts),
        "traces": {
            name: _trace_digest(simulate(schedule, scenario))
            for name, scenario in _scenarios(schedule).items()
        },
    }


@pytest.mark.parametrize("label", ["p2p-k1", "mixed-k2", "bus-k2"])
def test_shared_problem_matches_fresh_problems(label):
    """The static comm plan is memoized on the problem's routing table
    and shared by every scheduler, simulation and proof of the problem.
    Scheduling and simulating one problem object with all three methods,
    in either order and with the eval cache on or off, must give what a
    fresh problem per method gives."""
    fresh = {
        method: _run_record(CASES[label](), method, use_eval_cache=True)
        for method in SCHEDULERS
    }
    orders = (
        ("baseline", "solution1", "solution2"),
        ("solution2", "solution1", "baseline"),
    )
    for order in orders:
        for use_eval_cache in (True, False):
            shared = CASES[label]()
            for method in order:
                got = _run_record(shared, method, use_eval_cache)
                assert got == fresh[method], (order, use_eval_cache, method)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_compile_golden.py --regenerate")
    for path, make in ((FIXTURE, case_record), (EXECUTIVE_FIXTURE, executive_record)):
        records = {label: make(label) for label in sorted(CASES)}
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print("wrote %s (%d cases)" % (path, len(records)))
