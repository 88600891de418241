"""Workload inputs and the timed pipeline pass of the benchmark.

A workload is a list of problems, each run through the same public
layer calls the ``repro schedule``/``simulate``/``prove``/``campaign
run`` commands make (one process, ``jobs=1``, no process pool):

1. load the problem from its canonical JSON and hash it (``graphs.io``);
2. schedule it with every method of the workload and validate each
   schedule (``core``), then hash each schedule;
3. check the fault-tolerant schedules: simulate them (``sim``), prove
   them (``lint.proof``) and/or run a fault campaign
   (``obs.campaign``), as the workload asks.

Inputs come from ``--seed``.  The generator seeds are the pinned ones
of each workload (plus ``family``); ``seed`` then relabels every
operation with a seed-derived infix inserted after the first letter.
Every seed gives the same name order (so the same tie-breaks,
schedules and verdicts) but another JSON text and canonical hash:
different seeds are different inputs that do the same work.
``family`` shifts the generator seeds instead and gives a held-out set
of problems of the same sizes.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.syndex import SyndexScheduler
from repro.core.validate import validate_schedule
from repro.graphs import io
from repro.graphs.architecture import fully_connected_architecture
from repro.graphs.generators import layered, random_bus_problem, random_problem
from repro.graphs.problem import Problem
from repro.lint.proof import prove_delivery
from repro.obs.campaign import enumerate_space, run_campaign
from repro.sim import FailureScenario, simulate

SCHEDULERS = {
    "baseline": SyndexScheduler,
    "solution1": Solution1Scheduler,
    "solution2": Solution2Scheduler,
}

#: The fault-tolerant methods (the others are non-FT baselines).
FT_METHODS = ("solution1", "solution2")

#: Stages of a pass; ``check_s`` is simulate + prove + campaign.
STAGES = ("load_s", "schedule_s", "hash_s", "simulate_s", "prove_s", "campaign_s")


def _p2p132(family: int) -> Problem:
    seed = 7 + family
    architecture = fully_connected_architecture(
        [f"P{i + 1}" for i in range(20)], name="p2p20"
    )
    return random_problem(layered(16, 8, seed=seed), architecture, failures=1, seed=seed)


def _bus(operations: int, processors: int, failures: int, seed: int):
    def make(family: int) -> Problem:
        return random_bus_problem(
            operations, processors, failures=failures, seed=seed + family
        )

    return make


#: Problem generators by name; each takes the ``family`` offset.
PROBLEMS: Dict[str, Callable[[int], Problem]] = {
    "p2p132": _p2p132,
    "bus20k1": _bus(20, 5, 1, seed=1),
    "bus12k2": _bus(12, 4, 2, seed=1),
    "bus10k2": _bus(10, 4, 2, seed=0),
}


@dataclass(frozen=True)
class Workload:
    problems: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: Simulate each FT schedule failure-free and with P1 dead.
    simulate: bool = False
    prove: bool = False
    campaign: bool = False


#: Why each workload exists is in README.md next to this file.
WORKLOADS: Dict[str, Workload] = {
    "compile-p2p132": Workload(
        problems=("p2p132",),
        methods=("baseline", "solution1", "solution2"),
        simulate=True,
    ),
    "verify-bus": Workload(
        problems=("bus20k1", "bus12k2", "bus10k2"),
        methods=("baseline", "solution1"),
        prove=True,
        campaign=True,
    ),
}


def relabel(data: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """``data`` with every operation name ``Xrest`` renamed ``Xs<seed>_rest``.

    The infix is shared by all operations and always starts with ``s``,
    so any two names of the problem compare the same way whatever the
    seed: two operation names through their tails, an operation name
    and any other name by their first two characters (no processor or
    link name has ``s`` second).
    """
    infix = f"s{seed}_"

    def rename(name: str) -> str:
        return name[:1] + infix + name[1:]

    algorithm = data["algorithm"]
    return {
        **data,
        "algorithm": {
            **algorithm,
            "operations": [
                {**op, "name": rename(op["name"])} for op in algorithm["operations"]
            ],
            "dependencies": [
                {**dep, "src": rename(dep["src"]), "dst": rename(dep["dst"])}
                for dep in algorithm["dependencies"]
            ],
        },
        "execution": [{**e, "op": rename(e["op"])} for e in data["execution"]],
        "communication": [
            {**e, "src": rename(e["src"]), "dst": rename(e["dst"])}
            for e in data["communication"]
        ],
    }


@dataclass
class ProblemInput:
    name: str
    #: Canonical JSON text the pass loads the problem from.
    text: str
    #: ``problem_hash`` of the generated problem, before the round trip.
    hash: str


@dataclass
class Inputs:
    workload_name: str
    workload: Workload
    problems: List[ProblemInput]


def build_inputs(workload_name: str, seed: int, family: int = 0) -> Inputs:
    """Generate, relabel, canonicalise and hash the workload's problems."""
    workload = WORKLOADS[workload_name]
    problems = []
    for name in workload.problems:
        data = relabel(io.problem_to_dict(PROBLEMS[name](family)), seed)
        problems.append(
            ProblemInput(
                name=name,
                text=io.canonical_problem_json(data),
                hash=io.problem_hash(data),
            )
        )
    return Inputs(workload_name, workload, problems)


@dataclass
class ProblemRun:
    """Everything one pass produced for one problem."""

    name: str
    problem: Problem
    hash: str
    #: method -> (ScheduleResult, ValidationReport, schedule_hash)
    schedules: Dict[str, Tuple[Any, Any, str]] = field(default_factory=dict)
    #: (method, scenario, trace) of every explicit simulation.
    traces: List[Tuple[str, FailureScenario, Any]] = field(default_factory=list)
    proof: Any = None
    campaign: Any = None


@dataclass
class PassResult:
    wall_s: float
    stages: Dict[str, float]
    runs: List[ProblemRun]

    @property
    def check_s(self) -> float:
        return self.stages["simulate_s"] + self.stages["prove_s"] + self.stages["campaign_s"]


def run_pass(inputs: Inputs) -> PassResult:
    """One timed pass of the workload pipeline over all its problems."""
    workload = inputs.workload
    stages: Dict[str, float] = defaultdict(float)
    clock = time.perf_counter
    runs = []
    started = clock()
    for spec in inputs.problems:
        mark = clock()
        problem = io.problem_from_dict(json.loads(spec.text))
        run = ProblemRun(spec.name, problem, io.problem_hash(problem))
        stages["load_s"] += clock() - mark
        for method in workload.methods:
            mark = clock()
            result = SCHEDULERS[method](problem).run()
            report = validate_schedule(result.schedule)
            stages["schedule_s"] += clock() - mark
            mark = clock()
            run.schedules[method] = (result, report, io.schedule_hash(result.schedule))
            stages["hash_s"] += clock() - mark
        if workload.simulate:
            mark = clock()
            for method in (m for m in workload.methods if m in FT_METHODS):
                schedule = run.schedules[method][0].schedule
                for scenario in (
                    FailureScenario.none(),
                    FailureScenario.dead_from_start("P1"),
                ):
                    run.traces.append((method, scenario, simulate(schedule, scenario)))
            stages["simulate_s"] += clock() - mark
        schedule = run.schedules["solution1"][0].schedule
        if workload.prove:
            mark = clock()
            run.proof = prove_delivery(schedule)
            stages["prove_s"] += clock() - mark
        if workload.campaign:
            mark = clock()
            space = enumerate_space(schedule, failures=problem.failures)
            run.campaign = run_campaign(
                schedule,
                space,
                label=spec.name,
                method="solution1",
                failures=problem.failures,
                jobs=1,
            )
            stages["campaign_s"] += clock() - mark
        runs.append(run)
    wall = clock() - started
    return PassResult(wall, {s: stages[s] for s in STAGES}, runs)


def gmean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(result: PassResult) -> Dict[str, float]:
    """The exact schedule-quality metrics of a pass (paper §6.6)."""
    makespans, overheads = [], []
    for run in result.runs:
        baseline = run.schedules["baseline"][0].makespan
        for method, (schedule_result, _, _) in run.schedules.items():
            if method in FT_METHODS:
                makespans.append(schedule_result.makespan)
                overheads.append(schedule_result.makespan / baseline)
    return {
        "makespan_gmean": gmean(makespans),
        "ft_overhead_gmean": gmean(overheads),
    }


def nominal_response_gap(result: PassResult) -> float:
    """Largest failure-free simulated response minus static makespan.

    Taken from the explicit failure-free simulations, or else from each
    campaign's failure-free baseline scenario.
    """
    gaps = []
    for run in result.runs:
        for method, scenario, trace in run.traces:
            if not scenario.crashes:
                gaps.append(trace.response_time - run.schedules[method][0].makespan)
        if run.campaign is not None:
            for outcome in run.campaign.outcomes:
                if outcome.origin == "baseline":
                    gaps.append(
                        outcome.response_time - run.schedules["solution1"][0].makespan
                    )
    return max(gaps)
