"""The record model: one schema-stamped record per run.

A *ledger record* (``repro.obs.ledger/1``) is the durable memory of
one run: what ran, on which problem (by canonical content hash), on
which machine, what it measured, how it exited, and which artifacts it
produced (by content digest, deduplicated in the store).  It is the
only record format in the project: the CLI appends one per recorded
invocation to the ledger store, and ``repro bench run`` writes one per
benchmark scenario into a ``BENCH_<suite>.jsonl`` slice.

Every metric carries its comparison semantics with it:

* ``direction`` — which way is better: ``"lower"`` (makespan, wall
  time), ``"higher"`` (availability), or ``"exact"`` (deterministic
  quantities where *any* drift beyond noise is a regression);
* ``kind`` — ``"quality"`` (paper quantities), ``"counter"`` (obs
  counters, exactly reproducible), ``"timing"`` (wall clock, noisy by
  nature and skippable via ``--no-timings``);
* ``noise`` — the relative change tolerated before the comparator
  calls a verdict, so thresholds live next to the numbers they guard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..schema import stamp, validate_stamp

__all__ = ["LEDGER_SCHEMA_ID", "ArtifactRef", "LedgerRecord", "Metric"]

#: Schema identifier stamped into (and required of) every record.
LEDGER_SCHEMA_ID = "repro.obs.ledger/1"

_DIRECTIONS = ("lower", "higher", "exact")
_KINDS = ("quality", "counter", "timing")


@dataclass(frozen=True)
class Metric:
    """One measured quantity plus how to compare it across runs."""

    value: float
    unit: str = ""
    direction: str = "lower"
    kind: str = "quality"
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction {self.direction!r} not in {_DIRECTIONS}"
            )
        if self.kind not in _KINDS:
            raise ValueError(f"kind {self.kind!r} not in {_KINDS}")
        if self.noise < 0:
            raise ValueError("noise threshold cannot be negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "kind": self.kind,
            "noise": self.noise,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Metric":
        value = data.get("value") if isinstance(data, Mapping) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"no numeric value (got {value!r})")
        return cls(
            value=value,
            unit=str(data.get("unit", "")),
            direction=str(data.get("direction", "lower")),
            kind=str(data.get("kind", "quality")),
            noise=float(data.get("noise", 0.0)),
        )


@dataclass(frozen=True)
class ArtifactRef:
    """One produced artifact, by kind, original name, and content digest."""

    kind: str
    name: str
    digest: str
    size: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "digest": self.digest,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArtifactRef":
        return cls(
            kind=str(data.get("kind", "")),
            name=str(data.get("name", "")),
            digest=str(data["digest"]),
            size=int(data.get("size", 0)),
        )


@dataclass
class LedgerRecord:
    """Everything remembered about one run."""

    run_id: str
    created: str
    command: str
    #: The invocation's argument vector, with the ledger's own flags
    #: stripped (two runs differing only in where they logged are the
    #: same run).
    argv: List[str] = field(default_factory=list)
    exit_code: int = 0
    #: Canonical content hash of the (first) problem the run operated
    #: on; empty for problem-less invocations (``bench list``, ...).
    problem_hash: str = ""
    #: Every problem hash the run touched (multi-target commands like
    #: ``campaign run --suite smoke``), primary first.
    problem_hashes: List[str] = field(default_factory=list)
    #: Canonical content hash of the (last) schedule the run produced.
    schedule_hash: str = ""
    wall_s: float = 0.0
    environment: Dict[str, Any] = field(default_factory=dict)
    #: Comparator-ready quality/counter/timing metrics.
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: The full obs-registry snapshot of the run's instrumented
    #: session (counters, gauges, histogram digests).
    obs: Dict[str, Any] = field(default_factory=dict)
    artifacts: List[ArtifactRef] = field(default_factory=list)
    label: str = ""
    #: Benchmark records only: the suite run, the registered scenario
    #: (the record's comparison row) and its parameters.
    suite: str = ""
    scenario: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    #: Why the run failed, when it raised instead of exiting.
    error: str = ""

    @property
    def verdict(self) -> str:
        """``ok`` (exit 0) or ``fail`` — the queryable outcome."""
        return "ok" if self.exit_code == 0 else "fail"

    def metric_value(self, name: str) -> Optional[float]:
        metric = self.metrics.get(name)
        return metric.value if metric else None

    def to_dict(self) -> Dict[str, Any]:
        return stamp(
            LEDGER_SCHEMA_ID,
            {
                "run_id": self.run_id,
                "created": self.created,
                "command": self.command,
                "argv": list(self.argv),
                "exit_code": self.exit_code,
                "verdict": self.verdict,
                "problem_hash": self.problem_hash,
                "problem_hashes": list(self.problem_hashes),
                "schedule_hash": self.schedule_hash,
                "wall_s": self.wall_s,
                "environment": dict(self.environment),
                "metrics": {
                    name: metric.to_dict()
                    for name, metric in sorted(self.metrics.items())
                },
                "obs": dict(self.obs),
                "artifacts": [ref.to_dict() for ref in self.artifacts],
                "label": self.label,
                "suite": self.suite,
                "scenario": self.scenario,
                "params": dict(self.params),
                "error": self.error,
            },
        )

    def to_json_line(self) -> str:
        """The record as one JSON line (``runs query``, bench slices)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LedgerRecord":
        validate_stamp(
            data,
            LEDGER_SCHEMA_ID,
            required=("run_id", "created", "command"),
        )
        metrics = {}
        for name, entry in data.get("metrics", {}).items():
            try:
                metrics[name] = Metric.from_dict(entry)
            except (TypeError, ValueError) as error:
                raise ValueError(f"metric {name!r}: {error}") from None
        return cls(
            run_id=str(data["run_id"]),
            created=str(data["created"]),
            command=str(data["command"]),
            argv=[str(a) for a in data.get("argv", [])],
            exit_code=int(data.get("exit_code", 0)),
            problem_hash=str(data.get("problem_hash", "")),
            problem_hashes=[
                str(h) for h in data.get("problem_hashes", [])
            ],
            schedule_hash=str(data.get("schedule_hash", "")),
            wall_s=float(data.get("wall_s", 0.0)),
            environment=dict(data.get("environment", {})),
            metrics=metrics,
            obs=dict(data.get("obs", {})),
            artifacts=[
                ArtifactRef.from_dict(ref)
                for ref in data.get("artifacts", [])
            ],
            label=str(data.get("label", "")),
            suite=str(data.get("suite", "")),
            scenario=str(data.get("scenario", "")),
            params=dict(data.get("params", {})),
            error=str(data.get("error", "")),
        )
