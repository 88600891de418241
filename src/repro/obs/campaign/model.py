"""The campaign data model: equivalence classes, verdicts, results.

A fault-injection *campaign* executes many crash scenarios against one
schedule and accounts for how much of the crash-scenario space they
cover.  The space is quotiented into **equivalence classes** keyed by
``(crashed processor, event window)`` pairs: between two consecutive
:func:`repro.core.timeline.event_boundaries` dates nothing statically
scheduled begins, ends, or expires, so two crashes of the same
processor inside one window interrupt the same set of in-flight
activities.  Coverage is then *classes exercised / classes
enumerated* — a number that means something, unlike a raw scenario
count.

Artifacts are JSON with versioned schemas, like the bench snapshots:

* ``repro.obs.campaign/1`` — a campaign result file (one or more
  targets, each with its enumerated classes and per-scenario
  verdicts), written by ``repro campaign run --out``;
* ``repro.obs.campaign.reproducer/1`` — a **reproducer**: the minimal
  recipe (problem spec + method + crash spec) that replays one
  scenario, emitted for every failing verdict and replayable with
  ``repro campaign run --repro``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ...core.timeline import render_class_key, window_index
from ...graphs.problem import Problem
from ...sim.faults import Crash, FailureScenario, LinkCrash
from ..environment import environment_fingerprint, utc_now
from ..schema import validate_stamp

__all__ = [
    "SCHEMA_ID",
    "REPRODUCER_SCHEMA_ID",
    "ClassKey",
    "window_index",
    "class_key",
    "render_class_key",
    "CampaignScenario",
    "ScenarioOutcome",
    "CampaignResult",
    "save_campaigns",
    "load_campaigns",
    "scenario_to_dict",
    "scenario_from_dict",
    "make_reproducer",
    "save_reproducer",
    "load_reproducer",
    "problem_from_spec",
]

#: Schema identifier of a campaign result file.
SCHEMA_ID = "repro.obs.campaign/1"
#: Schema identifier of a single-scenario reproducer file.
REPRODUCER_SCHEMA_ID = "repro.obs.campaign.reproducer/1"

#: An equivalence class of crash scenarios: sorted (processor,
#: event-window index) pairs.  The empty tuple is the failure-free
#: class.
ClassKey = Tuple[Tuple[str, int], ...]


# ----------------------------------------------------------------------
# Equivalence classes
# ----------------------------------------------------------------------
def class_key(
    scenario: FailureScenario, boundaries: Sequence[float]
) -> ClassKey:
    """The (crashed-set, event-window) equivalence class of a scenario."""
    return tuple(
        sorted(
            (crash.processor, window_index(boundaries, crash.at))
            for crash in scenario.crashes
        )
    )


@dataclass(frozen=True)
class CampaignScenario:
    """One enumerated scenario: the failures plus its class and origin."""

    scenario: FailureScenario
    key: ClassKey
    #: Which enumerator produced it: ``baseline`` (failure-free),
    #: ``critical-instant`` (single crashes at event boundaries ± ε),
    #: ``subset-strata`` (≤K subsets, stratified crash times),
    #: ``random`` (seeded :meth:`FailureScenario.random` strata), or
    #: ``reproducer`` (replayed from a file).
    origin: str = "critical-instant"


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """The verdict of executing one campaign scenario."""

    name: str
    key: str
    origin: str
    status: str  # "pass" | "fail"
    #: Why a failing scenario failed: ``incomplete``,
    #: ``oracle-mismatch``, ``value-anomaly``, ``trace:<rule>``.
    reasons: List[str] = field(default_factory=list)
    response_time: float = math.inf
    detections: int = 0
    #: Worst observed crash-to-detection lag in this scenario (0 when
    #: nothing was detected).
    takeover_latency: float = 0.0
    #: Per-scenario obs work counters (frames sent/delivered,
    #: executions, takeovers) from the scenario's own instrumented
    #: session.
    work: Dict[str, float] = field(default_factory=dict)
    #: Rendered delivery-gap diagnosis (failing scenarios only).
    diagnosis: Optional[Dict[str, Any]] = None
    #: Minimized reproducer document (failing scenarios only).
    reproducer: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "key": self.key,
            "origin": self.origin,
            "status": self.status,
            "reasons": list(self.reasons),
            "response_time": (
                "inf" if math.isinf(self.response_time) else self.response_time
            ),
            "detections": self.detections,
            "takeover_latency": self.takeover_latency,
            "work": dict(self.work),
        }
        if self.diagnosis is not None:
            data["diagnosis"] = self.diagnosis
        if self.reproducer is not None:
            data["reproducer"] = self.reproducer
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioOutcome":
        response = data.get("response_time", "inf")
        return cls(
            name=str(data["name"]),
            key=str(data["key"]),
            origin=str(data.get("origin", "")),
            status=str(data["status"]),
            reasons=[str(r) for r in data.get("reasons", [])],
            response_time=(
                math.inf if response == "inf" else float(response)
            ),
            detections=int(data.get("detections", 0)),
            takeover_latency=float(data.get("takeover_latency", 0.0)),
            work={k: float(v) for k, v in data.get("work", {}).items()},
            diagnosis=data.get("diagnosis"),
            reproducer=data.get("reproducer"),
        )


# ----------------------------------------------------------------------
# Campaign result (one target)
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign learned about one schedule."""

    label: str
    method: str
    failures: int
    #: Every enumerated equivalence class (rendered keys) — the
    #: denominator of the coverage ratio.
    enumerated: List[str] = field(default_factory=list)
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    #: Scenarios dropped by deduplication into an already-enumerated
    #: class (they would have re-tested an exercised window).
    deduplicated: int = 0
    created: str = ""
    environment: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.created:
            self.created = utc_now()
        if not self.environment:
            self.environment = environment_fingerprint()

    # -- coverage accounting ------------------------------------------
    @property
    def executed_classes(self) -> List[str]:
        return sorted({outcome.key for outcome in self.outcomes})

    @property
    def coverage(self) -> float:
        """Classes exercised / classes enumerated (1.0 when empty)."""
        if not self.enumerated:
            return 1.0
        executed = set(self.executed_classes)
        return len(executed & set(self.enumerated)) / len(self.enumerated)

    @property
    def unexercised_classes(self) -> List[str]:
        executed = set(self.executed_classes)
        return sorted(k for k in self.enumerated if k not in executed)

    # -- verdict accounting -------------------------------------------
    @property
    def passed(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.passed]

    @property
    def failed(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failed

    @property
    def worst_takeover_latency(self) -> float:
        """The slowest observed crash-to-detection lag of the campaign."""
        lags = [o.takeover_latency for o in self.outcomes]
        return max(lags) if lags else 0.0

    # -- (de)serialization --------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "method": self.method,
            "failures": self.failures,
            "enumerated": list(self.enumerated),
            "deduplicated": self.deduplicated,
            "created": self.created,
            "environment": dict(self.environment),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignResult":
        return cls(
            label=str(data["label"]),
            method=str(data.get("method", "")),
            failures=int(data.get("failures", 0)),
            enumerated=[str(k) for k in data.get("enumerated", [])],
            outcomes=[
                ScenarioOutcome.from_dict(o) for o in data.get("outcomes", [])
            ],
            deduplicated=int(data.get("deduplicated", 0)),
            created=str(data.get("created", "")),
            environment=dict(data.get("environment", {})),
        )


def save_campaigns(
    results: Sequence[CampaignResult], path: Union[str, Path]
) -> Path:
    """Write one or more campaign results as a schema-stamped JSON file."""
    path = Path(path)
    document = {
        "schema": SCHEMA_ID,
        "created": utc_now(),
        "targets": [result.to_dict() for result in results],
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    from ..ledger.session import notify_artifact

    notify_artifact("campaign", path)
    return path


def load_campaigns(path: Union[str, Path]) -> List[CampaignResult]:
    """Load and validate a campaign result file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error
    validate_stamp(data, SCHEMA_ID, required=("targets",), where=str(path))
    targets = data.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ValueError(f"{path}: missing or empty 'targets' list")
    return [CampaignResult.from_dict(target) for target in targets]


# ----------------------------------------------------------------------
# Failure-scenario (de)serialization
# ----------------------------------------------------------------------
def scenario_to_dict(scenario: FailureScenario) -> Dict[str, Any]:
    """A JSON-friendly crash spec (permanent and intermittent crashes)."""
    crashes = []
    for crash in scenario.crashes:
        entry: Dict[str, Any] = {"processor": crash.processor, "at": crash.at}
        if not crash.is_permanent:
            entry["until"] = crash.until
        crashes.append(entry)
    data: Dict[str, Any] = {
        "name": scenario.name,
        "crashes": crashes,
        "known_failed": sorted(scenario.known_failed),
    }
    if scenario.link_crashes:
        entries = []
        for crash in scenario.link_crashes:
            entry = {"link": crash.link, "at": crash.at}
            if not math.isinf(crash.until):
                entry["until"] = crash.until
            entries.append(entry)
        data["link_crashes"] = entries
    return data


def scenario_from_dict(data: Mapping[str, Any]) -> FailureScenario:
    """Rebuild a :class:`FailureScenario` from :func:`scenario_to_dict`."""
    crashes = tuple(
        Crash(
            processor=str(entry["processor"]),
            at=float(entry.get("at", 0.0)),
            until=float(entry.get("until", math.inf)),
        )
        for entry in data.get("crashes", [])
    )
    link_crashes = tuple(
        LinkCrash(
            link=str(entry["link"]),
            at=float(entry.get("at", 0.0)),
            until=float(entry.get("until", math.inf)),
        )
        for entry in data.get("link_crashes", [])
    )
    return FailureScenario(
        crashes=crashes,
        link_crashes=link_crashes,
        known_failed=frozenset(
            str(p) for p in data.get("known_failed", [])
        ),
        name=str(data.get("name", "")),
    )


# ----------------------------------------------------------------------
# Reproducers
# ----------------------------------------------------------------------
def make_reproducer(
    problem_spec: Mapping[str, Any],
    method: str,
    scenario: FailureScenario,
    note: str = "",
    expect: str = "fail",
) -> Dict[str, Any]:
    """A self-contained replay recipe for one scenario.

    ``problem_spec`` names how to rebuild the problem (see
    :func:`problem_from_spec`); the rest is the exact crash pattern.
    """
    return {
        "schema": REPRODUCER_SCHEMA_ID,
        "problem": dict(problem_spec),
        "method": method,
        "scenario": scenario_to_dict(scenario),
        "expect": expect,
        "note": note,
    }


def save_reproducer(
    reproducer: Mapping[str, Any], path: Union[str, Path]
) -> Path:
    """Write a reproducer document as stable, diff-friendly JSON."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(dict(reproducer), handle, indent=2, sort_keys=True)
        handle.write("\n")
    from ..ledger.session import notify_artifact

    notify_artifact("reproducer", path)
    return path


def load_reproducer(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a reproducer file (schema + required keys)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error
    validate_stamp(
        data,
        REPRODUCER_SCHEMA_ID,
        required=("problem", "method", "scenario"),
        where=str(path),
    )
    return dict(data)


def problem_from_spec(spec: Mapping[str, Any]) -> Problem:
    """Rebuild a problem from a reproducer's ``problem`` spec.

    Supported kinds: ``paper-first`` / ``paper-second`` (the bundled
    examples, param ``failures``), ``random-bus`` / ``random-p2p``
    (the seeded generators, params ``operations``/``processors``/
    ``failures``/``seed``), and ``file`` (param ``path``, loaded by
    extension like the CLI does).
    """
    kind = spec.get("kind")
    if kind == "paper-first":
        from ...paper import examples

        return examples.first_example_problem(
            failures=int(spec.get("failures", 1))
        )
    if kind == "paper-second":
        from ...paper import examples

        return examples.second_example_problem(
            failures=int(spec.get("failures", 1))
        )
    if kind in ("random-bus", "random-p2p"):
        from ...graphs.generators import random_bus_problem, random_p2p_problem

        make = random_bus_problem if kind == "random-bus" else random_p2p_problem
        return make(
            operations=int(spec["operations"]),
            processors=int(spec["processors"]),
            failures=int(spec.get("failures", 1)),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "file":
        path = str(spec["path"])
        if path.endswith(".aaa"):
            from ...graphs.text_format import load_problem_text

            return load_problem_text(path)
        from ...graphs.io import load_problem

        return load_problem(path)
    raise ValueError(f"unknown problem spec kind {kind!r}")
