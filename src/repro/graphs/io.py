"""JSON serialization of problems and schedules, and DOT export.

SynDEx reads its graphs from files (possibly produced by synchronous-
language compilers through the DC format); this module provides the
equivalent interchange layer for the reproduction: a stable JSON
encoding of :class:`~repro.graphs.problem.Problem` (round-trip exact,
``inf`` encoded as the string ``"inf"``) and of schedules (one-way:
schedules reference their problem), plus Graphviz DOT renderings of
both graphs for documentation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union

from .algorithm import AlgorithmGraph, Operation, OperationKind
from .architecture import Architecture, LinkKind
from .constraints import INFINITY, CommunicationTable, ExecutionTable
from .problem import Problem

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "canonical_problem_json",
    "problem_hash",
    "schedule_to_dict",
    "schedule_hash",
    "algorithm_to_dot",
    "architecture_to_dot",
]


def _encode_duration(value: float) -> Union[float, str]:
    return "inf" if math.isinf(value) else value


def _decode_duration(value: Union[float, str]) -> float:
    return INFINITY if value == "inf" else float(value)


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------

def problem_to_dict(problem: Problem) -> Dict[str, Any]:
    """A JSON-ready dict capturing the whole problem."""
    algorithm = problem.algorithm
    architecture = problem.architecture
    return {
        "name": problem.name,
        "failures": problem.failures,
        "deadline": problem.deadline,
        "algorithm": {
            "name": algorithm.name,
            "operations": [
                {
                    "name": op.name,
                    "kind": op.kind.value,
                    **(
                        {"initial_value": op.initial_value}
                        if op.initial_value is not None
                        else {}
                    ),
                }
                for op in algorithm
            ],
            "dependencies": [
                {"src": dep.src, "dst": dep.dst, "label": dep.label}
                for dep in algorithm.dependencies
            ],
        },
        "architecture": {
            "name": architecture.name,
            "processors": [
                {"name": proc.name, "description": proc.description}
                for proc in architecture
            ],
            "links": [
                {
                    "name": link.name,
                    "kind": link.kind.value,
                    "endpoints": sorted(link.endpoints),
                }
                for link in architecture.links
            ],
        },
        "execution": [
            {"op": op, "processor": proc, "duration": _encode_duration(duration)}
            for (op, proc), duration in sorted(problem.execution.entries.items())
        ],
        "communication": [
            {
                "src": dep[0],
                "dst": dep[1],
                "link": link,
                "duration": duration,
            }
            for (dep, link), duration in sorted(
                problem.communication.entries.items()
            )
        ],
    }


def problem_from_dict(data: Dict[str, Any]) -> Problem:
    """Rebuild a problem from :func:`problem_to_dict` output."""
    algorithm = AlgorithmGraph(data["algorithm"].get("name", "algorithm"))
    for entry in data["algorithm"]["operations"]:
        algorithm.add_operation(
            Operation(
                entry["name"],
                OperationKind(entry.get("kind", "comp")),
                initial_value=entry.get("initial_value"),
            )
        )
    for entry in data["algorithm"]["dependencies"]:
        algorithm.add_dependency(
            entry["src"], entry["dst"], entry.get("label", "")
        )

    architecture = Architecture(data["architecture"].get("name", "architecture"))
    for entry in data["architecture"]["processors"]:
        architecture.add_processor(entry["name"], entry.get("description", ""))
    for entry in data["architecture"]["links"]:
        if LinkKind(entry["kind"]) is LinkKind.BUS:
            architecture.add_bus(entry["name"], entry["endpoints"])
        else:
            first, second = entry["endpoints"]
            architecture.add_link(entry["name"], first, second)

    # One validating loop per table (a repeated key keeps its last
    # value, as repeated set_duration calls would).
    execution: Dict[Tuple[str, str], float] = {}
    for entry in data["execution"]:
        op, proc = entry["op"], entry["processor"]
        execution[(op, proc)] = ExecutionTable.checked(
            op, proc, _decode_duration(entry["duration"])
        )
    communication: Dict[Tuple[Tuple[str, str], str], float] = {}
    check_comm = CommunicationTable.checked
    for entry in data["communication"]:
        dep, link = (entry["src"], entry["dst"]), entry["link"]
        communication[(dep, link)] = check_comm(dep, link, entry["duration"])

    return Problem(
        algorithm=algorithm,
        architecture=architecture,
        execution=ExecutionTable(execution),
        communication=CommunicationTable(communication),
        failures=data.get("failures", 0),
        deadline=data.get("deadline"),
        name=data.get("name", "problem"),
    )


# ----------------------------------------------------------------------
# Canonical content hashing
# ----------------------------------------------------------------------

#: ``json.dumps`` as the canonical form writes every value.
_dump = functools.partial(
    json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False
)


class _Encoded(dict):
    """``_dump`` of each value looked up, memoized for strings: the
    same few hundred names recur across every table entry."""

    def __missing__(self, value: Any) -> str:
        text = _dump(value)
        if type(value) is str:
            self[value] = text
        return text


def _float_text(value: float) -> str:
    """``_dump(value)`` of a float (a non-finite one raises ValueError)."""
    return float.__repr__(value) if math.isfinite(value) else _dump(value)


def _execution_text(duration: float) -> str:
    """An execution duration through the duration codec: ``"inf"``
    for an infinite one, the number otherwise."""
    return '"inf"' if math.isinf(duration) else _float_text(duration)


#: The normal form of a problem, field by field: the scalars, then the
#: entity lists sorted by their identifying fields, names left raw and
#: table durations already written as JSON text.
_CanonicalParts = Tuple[Any, ...]

_first = operator.itemgetter(0)


def _problem_parts(problem: Problem) -> _CanonicalParts:
    """The normal form of a :class:`Problem`, read off its graphs and
    tables (durations through ``float`` as the dict path converts them:
    a table built directly may hold ints)."""
    algorithm = problem.algorithm
    architecture = problem.architecture
    return (
        problem.name,
        problem.failures,
        problem.deadline,
        algorithm.name,
        sorted(
            ((op.name, op.kind.value, op.initial_value) for op in algorithm),
            key=_first,
        ),
        sorted((dep.src, dep.dst, dep.label) for dep in algorithm.dependencies),
        architecture.name,
        sorted(
            ((proc.name, proc.description) for proc in architecture),
            key=_first,
        ),
        sorted(
            (
                (link.name, link.kind.value, sorted(link.endpoints))
                for link in architecture.links
            ),
            key=_first,
        ),
        [
            (op, proc, _execution_text(float(duration)))
            for (op, proc), duration in sorted(
                problem.execution.entries.items(), key=_first
            )
        ],
        [
            (src, dst, link, _float_text(float(duration)))
            for ((src, dst), link), duration in sorted(
                problem.communication.entries.items(), key=_first
            )
        ],
    )


def _dict_parts(data: Mapping[str, Any]) -> _CanonicalParts:
    """The normal form of a problem dict.

    :func:`problem_to_dict` already sorts the execution/communication
    tables, but the operation, dependency, processor, and link lists
    come out in insertion order — and a hand-edited problem file may
    list them in any order at all.  Two problems that load to the same
    :class:`Problem` must hash identically, so every list is sorted
    (stably) by its identifying fields, every omitted field takes the
    loader's default and every duration goes through the loader's
    conversion.
    """
    algorithm = data["algorithm"]
    architecture = data["architecture"]
    return (
        data.get("name", "problem"),
        data.get("failures", 0),
        data.get("deadline"),
        algorithm.get("name", "algorithm"),
        sorted(
            (
                (op["name"], op.get("kind", "comp"), op.get("initial_value"))
                for op in algorithm["operations"]
            ),
            key=_first,
        ),
        sorted(
            (dep["src"], dep["dst"], dep.get("label", ""))
            for dep in algorithm["dependencies"]
        ),
        architecture.get("name", "architecture"),
        sorted(
            (
                (proc["name"], proc.get("description", ""))
                for proc in architecture["processors"]
            ),
            key=_first,
        ),
        sorted(
            (
                (link["name"], link["kind"], sorted(link["endpoints"]))
                for link in architecture["links"]
            ),
            key=_first,
        ),
        sorted(
            (
                (
                    entry["op"],
                    entry["processor"],
                    _execution_text(_decode_duration(entry["duration"])),
                )
                for entry in data["execution"]
            ),
            key=operator.itemgetter(0, 1),
        ),
        sorted(
            (
                (
                    entry["src"],
                    entry["dst"],
                    entry["link"],
                    _float_text(float(entry["duration"])),
                )
                for entry in data["communication"]
            ),
            key=operator.itemgetter(0, 1, 2),
        ),
    )


def _write_canonical(parts: _CanonicalParts) -> str:
    """The canonical JSON text of a normal form: what ``_dump`` writes
    for the equivalent nested dicts, formatted entry by entry with the
    keys already in sorted order."""
    (
        name,
        failures,
        deadline,
        algorithm_name,
        operations,
        dependencies,
        architecture_name,
        processors,
        links,
        execution,
        communication,
    ) = parts
    text = _Encoded()
    return (
        '{"algorithm":{"dependencies":[%s],"name":%s,"operations":[%s]},'
        '"architecture":{"links":[%s],"name":%s,"processors":[%s]},'
        '"communication":[%s],"deadline":%s,"execution":[%s],'
        '"failures":%s,"name":%s}'
    ) % (
        ",".join([
            '{"dst":%s,"label":%s,"src":%s}' % (text[dst], text[label], text[src])
            for src, dst, label in dependencies
        ]),
        _dump(algorithm_name),
        ",".join([
            '{"initial_value":%s,"kind":%s,"name":%s}'
            % (_dump(initial), text[kind], text[op])
            for op, kind, initial in operations
        ]),
        ",".join([
            '{"endpoints":[%s],"kind":%s,"name":%s}'
            % (",".join([text[end] for end in endpoints]), text[kind], text[link])
            for link, kind, endpoints in links
        ]),
        _dump(architecture_name),
        ",".join([
            '{"description":%s,"name":%s}' % (text[description], text[proc])
            for proc, description in processors
        ]),
        ",".join([
            '{"dst":%s,"duration":%s,"link":%s,"src":%s}'
            % (text[dst], duration, text[link], text[src])
            for src, dst, link, duration in communication
        ]),
        _dump(deadline),
        ",".join([
            '{"duration":%s,"op":%s,"processor":%s}'
            % (duration, text[op], text[proc])
            for op, proc, duration in execution
        ]),
        _dump(failures),
        _dump(name),
    )


def canonical_problem_json(problem: Union[Problem, Mapping[str, Any]]) -> str:
    """The canonical serialization a problem is hashed over.

    Accepts a :class:`Problem` or an already-serialized problem dict
    (any key order, any list order) and produces one byte-stable JSON
    string: sorted keys, sorted entity lists, no whitespace, ``inf``
    encoded as ``"inf"``.  Round-trip invariant by construction —
    ``canonical_problem_json(problem_from_dict(d)) ==
    canonical_problem_json(d)`` for every valid problem dict ``d``.
    A :class:`Problem` is written straight from its tables, with no
    intermediate dict.
    """
    if isinstance(problem, Problem):
        return _write_canonical(_problem_parts(problem))
    return _write_canonical(_dict_parts(problem))


def problem_hash(problem: Union[Problem, Mapping[str, Any]]) -> str:
    """The canonical SHA-256 content hash of a problem.

    Bit-stable across process restarts, key reorderings, list
    reorderings, and save/load round-trips: the hash is taken over
    :func:`canonical_problem_json`.  This is the identity under which
    the run ledger recognizes repeated work on the same problem.
    """
    return hashlib.sha256(
        canonical_problem_json(problem).encode("utf-8")
    ).hexdigest()


def save_problem(problem: Problem, path: Union[str, Path]) -> None:
    """Write a problem to a JSON file."""
    Path(path).write_text(
        json.dumps(problem_to_dict(problem), indent=2, sort_keys=True)
    )


def load_problem(path: Union[str, Path]) -> Problem:
    """Read a problem from a JSON file."""
    return problem_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Schedules (one-way export)
# ----------------------------------------------------------------------

def schedule_to_dict(schedule) -> Dict[str, Any]:
    """A JSON-ready digest of a schedule (for logging and the CLI)."""
    return {
        "semantics": schedule.semantics.value,
        "makespan": schedule.makespan,
        "replicas": [
            {
                "op": replica.op,
                "processor": replica.processor,
                "start": replica.start,
                "end": replica.end,
                "replica": replica.replica,
            }
            for replica in schedule.all_replicas()
        ],
        "comms": [
            {
                "src": slot.src_op,
                "dst": slot.dst_op,
                "sender": slot.sender,
                "destinations": list(slot.destinations),
                "link": slot.link,
                "start": slot.start,
                "end": slot.end,
                "sender_replica": slot.sender_replica,
            }
            for slot in schedule.comms
        ],
        "timeouts": [
            {
                "op": entry.op,
                "dependency": list(entry.dependency),
                "watcher": entry.watcher,
                "candidate": entry.candidate,
                "rank": entry.rank,
                "deadline": entry.deadline,
            }
            for entry in schedule.timeouts
        ],
    }


def schedule_hash(schedule) -> str:
    """The canonical SHA-256 content hash of a schedule.

    Taken over :func:`schedule_to_dict` with every slot list sorted by
    its identifying fields and keys sorted, so the hash is independent
    of replica/comm emission order and stable across process restarts.
    Two schedulers (or two runs of one scheduler) produced the same
    schedule exactly when their hashes match.
    """
    data = schedule_to_dict(schedule)
    data["replicas"] = sorted(
        data["replicas"],
        key=lambda r: (r["op"], r["processor"], r["replica"]),
    )
    data["comms"] = sorted(
        data["comms"],
        key=lambda c: (c["src"], c["dst"], c["sender"], c["link"], c["start"]),
    )
    data["timeouts"] = sorted(
        (
            {**entry, "deadline": _encode_duration(entry["deadline"])}
            for entry in data["timeouts"]
        ),
        key=lambda t: (t["op"], t["dependency"], t["watcher"], t["rank"]),
    )
    return hashlib.sha256(
        json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# DOT export
# ----------------------------------------------------------------------

def algorithm_to_dot(algorithm: AlgorithmGraph) -> str:
    """Graphviz rendering of the data-flow graph (Figure 7 style)."""
    lines = [f'digraph "{algorithm.name}" {{', "  rankdir=LR;"]
    shapes = {
        OperationKind.COMP: "ellipse",
        OperationKind.MEM: "box",
        OperationKind.EXTIO: "diamond",
    }
    for op in algorithm:
        lines.append(
            f'  "{op.name}" [shape={shapes[op.kind]}, '
            f'label="{op.name}\\n({op.kind.value})"];'
        )
    for dep in algorithm.dependencies:
        lines.append(f'  "{dep.src}" -> "{dep.dst}";')
    lines.append("}")
    return "\n".join(lines)


def architecture_to_dot(architecture: Architecture) -> str:
    """Graphviz rendering of the architecture (Figure 8 style)."""
    lines = [f'graph "{architecture.name}" {{', "  layout=circo;"]
    for proc in architecture:
        lines.append(f'  "{proc.name}" [shape=box];')
    for link in architecture.links:
        if link.is_bus:
            lines.append(f'  "{link.name}" [shape=point, xlabel="{link.name}"];')
            for endpoint in sorted(link.endpoints):
                lines.append(f'  "{endpoint}" -- "{link.name}";')
        else:
            first, second = sorted(link.endpoints)
            lines.append(f'  "{first}" -- "{second}" [label="{link.name}"];')
    lines.append("}")
    return "\n".join(lines)
