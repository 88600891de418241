"""The canonical problem hash: the ledger's identity for a problem.

``problem_hash`` must be a *content* hash: invariant under key and
list reordering, invariant under a save/load round-trip, stable across
processes (the golden fixture), and distinct for distinct problems —
otherwise the run ledger would either split one problem's history into
several lineages or merge unrelated ones.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.graphs.generators import (
    layered_dag,
    random_p2p_problem,
    random_problem,
)
from repro.graphs.io import (
    canonical_problem_json,
    load_problem,
    problem_from_dict,
    problem_hash,
    problem_to_dict,
    save_problem,
    schedule_hash,
)
from repro.graphs.architecture import (
    Architecture,
    bus_architecture,
    fully_connected_architecture,
)
from repro.graphs.constraints import CommunicationTable, ExecutionTable
from repro.graphs.problem import Problem
from repro.core import schedule_solution1
from repro.paper.examples import (
    first_example_problem,
    second_example_problem,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "problem_hash_golden.json")
    .read_text()
)


def _shuffled(value, rng):
    """Deep-copy with every dict's key order and every list reversed
    or shuffled — same content, different serialization order."""
    if isinstance(value, dict):
        items = [(k, _shuffled(v, rng)) for k, v in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        items = [_shuffled(v, rng) for v in value]
        rng.shuffle(items)
        return items
    return value


def dense_generated_problem():
    """A generated problem whose communication table is dense (every
    dependency on every one of the 10 links), pinned in the fixture."""
    return random_p2p_problem(operations=14, processors=5, failures=1, seed=2)


def test_golden_hashes_are_stable():
    """The paper examples and a generated problem hash to their
    committed golden values.

    A failure here means the canonical form changed — which silently
    orphans every existing ledger lineage.  Bump the schema instead.
    """
    assert problem_hash(first_example_problem(failures=1)) == (
        GOLDEN["paper-first"]
    )
    assert problem_hash(second_example_problem(failures=1)) == (
        GOLDEN["paper-second"]
    )
    assert problem_hash(dense_generated_problem()) == GOLDEN["generated-p2p-dense"]


def test_hash_accepts_problem_or_dict():
    problem = first_example_problem(failures=1)
    assert problem_hash(problem) == problem_hash(problem_to_dict(problem))


def test_hash_invariant_under_reordering():
    problem = first_example_problem(failures=1)
    data = problem_to_dict(problem)
    reference = problem_hash(data)
    for seed in range(10):
        rng = random.Random(seed)
        assert problem_hash(_shuffled(data, rng)) == reference


def test_hash_invariant_under_roundtrip(tmp_path):
    problem = second_example_problem(failures=1)
    reference = problem_hash(problem)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert problem_hash(load_problem(str(path))) == reference
    # ... and through the dict layer explicitly.
    rebuilt = problem_from_dict(problem_to_dict(problem))
    assert problem_hash(rebuilt) == reference


def test_canonical_json_is_deterministic():
    problem = first_example_problem(failures=1)
    first = canonical_problem_json(problem)
    second = canonical_problem_json(problem_to_dict(problem))
    assert first == second
    # Canonical form is compact and sorted; parsing it back must work.
    assert json.loads(first)["name"] == problem.name


def test_distinct_problems_hash_distinctly():
    """Paper examples plus 20 seeded random problems: all distinct."""
    hashes = {
        problem_hash(first_example_problem(failures=1)),
        problem_hash(second_example_problem(failures=1)),
    }
    architecture = bus_architecture(("P1", "P2", "P3"))
    for seed in range(20):
        algorithm = layered_dag((2, 3, 2), density=0.6, seed=seed)
        problem = random_problem(
            algorithm, architecture, failures=1, seed=seed
        )
        hashes.add(problem_hash(problem))
    assert len(hashes) == 22


def test_hash_sensitive_to_every_section():
    """Touching any one section of the problem moves the hash."""
    base = problem_to_dict(first_example_problem(failures=1))
    reference = problem_hash(base)

    mutated = problem_to_dict(first_example_problem(failures=1))
    mutated["failures"] = 2
    assert problem_hash(mutated) != reference

    mutated = problem_to_dict(first_example_problem(failures=1))
    mutated["execution"][0]["duration"] += 0.5
    assert problem_hash(mutated) != reference

    mutated = problem_to_dict(first_example_problem(failures=1))
    mutated["communication"][0]["duration"] += 0.5
    assert problem_hash(mutated) != reference


def test_schedule_hash_deterministic_and_distinct():
    first = first_example_problem(failures=1)
    second = second_example_problem(failures=1)
    hash_a = schedule_hash(schedule_solution1(first).schedule)
    hash_b = schedule_hash(schedule_solution1(first).schedule)
    assert hash_a == hash_b
    assert hash_a != schedule_hash(schedule_solution1(second).schedule)


def test_hash_rejects_non_problem():
    with pytest.raises((KeyError, TypeError, ValueError)):
        problem_hash({"schema": "not-a-problem"})


# ----------------------------------------------------------------------
# The canonical writer against the dict pipeline it replaced
# ----------------------------------------------------------------------

def _encode(value):
    return "inf" if math.isinf(value) else value


def _decode(value):
    return math.inf if value == "inf" else float(value)


def _reference_dict(data):
    """The canonical normal form as a nested dict: every list sorted by
    its identifying fields, every duration through the codec."""
    algorithm = data["algorithm"]
    architecture = data["architecture"]
    return {
        "name": data.get("name", "problem"),
        "failures": data.get("failures", 0),
        "deadline": data.get("deadline"),
        "algorithm": {
            "name": algorithm.get("name", "algorithm"),
            "operations": sorted(
                (
                    {
                        "name": op["name"],
                        "kind": op.get("kind", "comp"),
                        "initial_value": op.get("initial_value"),
                    }
                    for op in algorithm["operations"]
                ),
                key=lambda op: op["name"],
            ),
            "dependencies": sorted(
                (
                    {
                        "src": dep["src"],
                        "dst": dep["dst"],
                        "label": dep.get("label", ""),
                    }
                    for dep in algorithm["dependencies"]
                ),
                key=lambda dep: (dep["src"], dep["dst"], dep["label"]),
            ),
        },
        "architecture": {
            "name": architecture.get("name", "architecture"),
            "processors": sorted(
                (
                    {
                        "name": proc["name"],
                        "description": proc.get("description", ""),
                    }
                    for proc in architecture["processors"]
                ),
                key=lambda proc: proc["name"],
            ),
            "links": sorted(
                (
                    {
                        "name": link["name"],
                        "kind": link["kind"],
                        "endpoints": sorted(link["endpoints"]),
                    }
                    for link in architecture["links"]
                ),
                key=lambda link: link["name"],
            ),
        },
        "execution": sorted(
            (
                {
                    "op": entry["op"],
                    "processor": entry["processor"],
                    "duration": _encode(_decode(entry["duration"])),
                }
                for entry in data["execution"]
            ),
            key=lambda entry: (entry["op"], entry["processor"]),
        ),
        "communication": sorted(
            (
                {
                    "src": entry["src"],
                    "dst": entry["dst"],
                    "link": entry["link"],
                    "duration": float(entry["duration"]),
                }
                for entry in data["communication"]
            ),
            key=lambda entry: (entry["src"], entry["dst"], entry["link"]),
        ),
    }


def reference_json(problem):
    """The canonical text as the dict pipeline writes it: the problem
    as a dict, its normal form, one ``json.dumps`` with sorted keys."""
    data = problem_to_dict(problem) if not isinstance(problem, dict) else problem
    return json.dumps(
        _reference_dict(data),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def _mixed_architecture():
    arch = Architecture("mixed")
    for proc in ("P1", "P2", "P3", "P4"):
        arch.add_processor(proc, description=f"ecu {proc}")
    arch.add_bus("can", ["P1", "P2", "P3"])
    arch.add_link("express", "P1", "P2")
    arch.add_link("l34", "P3", "P4")
    return arch


ARCHITECTURES = {
    "bus": lambda: bus_architecture(("P1", "P2", "P3", "P4")),
    "p2p": lambda: fully_connected_architecture(("P1", "P2", "P3", "P4")),
    "mixed": _mixed_architecture,
}

#: Names the writer must escape exactly as ``json.dumps`` does.
AWKWARD = ('q"uote', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\there")


def _battery_dict(arch_name, failures, seed):
    """A generated problem dict with every awkward feature: escaped and
    non-ASCII names, an infinite execution duration, MEM operations
    with initial values, an int or float deadline, and table entries
    for names in neither graph."""
    rng = random.Random(seed)
    algorithm = layered_dag((2, 3, 2), density=0.6, seed=seed)
    problem = random_problem(algorithm, ARCHITECTURES[arch_name](), failures, seed)
    data = problem_to_dict(problem)
    ops = [op["name"] for op in data["algorithm"]["operations"]]
    renamed = {
        op: AWKWARD[index % len(AWKWARD)] + op if rng.random() < 0.5 else op
        for index, op in enumerate(ops)
    }

    def rename(name):
        return renamed.get(name, name)

    data["algorithm"]["operations"] = [
        {**op, "name": rename(op["name"])} for op in data["algorithm"]["operations"]
    ] + [
        {"name": "mem\u00b5", "kind": "mem", "initial_value": 2.5},
        {"name": "mem_int", "kind": "mem", "initial_value": 3},
    ]
    data["algorithm"]["dependencies"] = [
        {**dep, "src": rename(dep["src"]), "dst": rename(dep["dst"])}
        for dep in data["algorithm"]["dependencies"]
    ]
    data["execution"] = [
        {**entry, "op": rename(entry["op"])} for entry in data["execution"]
    ]
    data["communication"] = [
        {**entry, "src": rename(entry["src"]), "dst": rename(entry["dst"])}
        for entry in data["communication"]
    ]
    procs = [proc["name"] for proc in data["architecture"]["processors"]]
    links = [link["name"] for link in data["architecture"]["links"]]
    for mem in ("mem\u00b5", "mem_int"):
        for proc in procs:
            infinite = mem == "mem_int" and proc == "P1"
            data["execution"].append(
                {"op": mem, "processor": proc, "duration": "inf" if infinite else 1.25}
            )
    data["execution"].append({"op": "ghost", "processor": "P9", "duration": 0.5})
    data["communication"].append(
        {"src": "ghost", "dst": "spook", "link": links[0], "duration": 0.75}
    )
    data["communication"].append(
        {"src": "ghost", "dst": "spook", "link": "no-such-link", "duration": 0.0}
    )
    data["deadline"] = (50, 50.5, None)[(failures + seed) % 3]
    return data


BATTERY = [
    (arch_name, failures, seed)
    for arch_name in ARCHITECTURES
    for failures in (0, 1, 2)
    for seed in (0, 1)
]


@pytest.mark.parametrize("arch_name,failures,seed", BATTERY)
def test_writer_matches_dict_pipeline(arch_name, failures, seed):
    """Problem and dict inputs both write byte for byte what the old
    dict pipeline wrote, for any key or list order of the dict."""
    data = _battery_dict(arch_name, failures, seed)
    problem = problem_from_dict(data)
    expected = reference_json(problem)
    assert canonical_problem_json(problem) == expected
    assert reference_json(data) == expected
    rng = random.Random(seed)
    for _ in range(3):
        shuffled = _shuffled(data, rng)
        assert canonical_problem_json(shuffled) == expected
    # A hand-written dict: omitted defaults and int durations.  It
    # loads to another problem than ``data``; the dict and the Problem
    # read from it must still write the same text.
    sparse = json.loads(json.dumps(data))
    for op in sparse["algorithm"]["operations"]:
        if op["kind"] == "comp":
            del op["kind"]
    for dep in sparse["algorithm"]["dependencies"]:
        del dep["label"]
    sparse["execution"][0]["duration"] = 3
    sparse["communication"][0]["duration"] = 2
    assert canonical_problem_json(sparse) == reference_json(sparse)
    assert canonical_problem_json(problem_from_dict(sparse)) == reference_json(sparse)
    # A repeated table key (the loader keeps the last value) is kept
    # twice by the dict path, in input order, as the stable sort did.
    sparse["execution"].append({**sparse["execution"][1], "duration": 9.5})
    sparse["communication"].append({**sparse["communication"][1], "duration": 0.25})
    assert canonical_problem_json(sparse) == reference_json(sparse)


def test_writer_converts_int_table_values():
    """Tables built directly (not through ``set_duration``) may hold
    ints; the canonical text still writes them as floats."""
    base = dense_generated_problem()
    problem = Problem(
        algorithm=base.algorithm,
        architecture=base.architecture,
        execution=ExecutionTable(
            {key: 3 for key in base.execution.entries}
        ),
        communication=CommunicationTable(
            {key: 2 for key in base.communication.entries}
        ),
        failures=1,
    )
    assert canonical_problem_json(problem) == reference_json(problem)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_communication_duration_raises(value):
    data = _battery_dict("bus", 1, 0)
    data["communication"][3]["duration"] = value
    with pytest.raises(ValueError):
        reference_json(data)
    with pytest.raises(ValueError):
        canonical_problem_json(data)


def test_nan_execution_duration_raises():
    data = _battery_dict("p2p", 1, 0)
    data["execution"][2]["duration"] = float("nan")
    with pytest.raises(ValueError):
        reference_json(data)
    with pytest.raises(ValueError):
        canonical_problem_json(data)


def test_dense_golden_problem_matches_dict_pipeline():
    problem = dense_generated_problem()
    links = len(problem.architecture.links)
    assert len(problem.communication.entries) == (
        len(problem.algorithm.dependencies) * links
    )
    assert canonical_problem_json(problem) == reference_json(problem)
