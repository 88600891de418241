"""The machine-checkable proof artifact (``repro.lint.proof/1``).

A proof file persists everything needed to audit the verdict without
re-running the prover: the automaton shape, the subset/region
accounting, per-dependency witness chains for ``SAFE`` results, and —
for ``UNSAFE`` results — concrete counterexamples whose crash dates
can be replayed one-to-one through the campaign executor
(:func:`counterexample_reproducer` emits the standard
``repro.obs.campaign.reproducer/1`` JSON).

The (processor, window)-class encoding is the campaign's
(:func:`~repro.core.timeline.window_index` and the ``P2@w3+P4@w0``
rendering, re-exported here as ``render_class``), so prover classes
and campaign classes can be compared with plain equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ...core.timeline import render_class_key as render_class
from ...core.timeline import window_index

__all__ = [
    "PROOF_SCHEMA_ID",
    "ClassRegion",
    "Counterexample",
    "DependencyWitness",
    "ProofResult",
    "counterexample_reproducer",
    "load_proof",
    "render_class",
    "save_proof",
    "window_index",
]

#: Schema identifier of a persisted proof artifact.
PROOF_SCHEMA_ID = "repro.lint.proof/1"


@dataclass
class ClassRegion:
    """A refuted region: per crashed processor, an inclusive window range.

    One region covers every (processor, window)-class whose windows all
    fall inside the ranges — the collapsed form in which the sweep
    discovers refutations.
    """

    windows: Dict[str, Tuple[int, int]]
    subset: Tuple[str, ...]

    def contains(self, key: Sequence[Tuple[str, int]]) -> bool:
        """True when class ``key`` lies inside this refuted region."""
        if {proc for proc, _w in key} != set(self.windows):
            return False
        for proc, window in key:
            lo, hi = self.windows[proc]
            if not lo <= window <= hi:
                return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "subset": list(self.subset),
            "windows": {
                proc: [lo, hi] for proc, (lo, hi) in sorted(self.windows.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClassRegion":
        return cls(
            windows={
                proc: (int(pair[0]), int(pair[1]))
                for proc, pair in data.get("windows", {}).items()
            },
            subset=tuple(data.get("subset", [])),
        )


@dataclass
class Counterexample:
    """A concrete refutation: crash dates, their class, and the damage."""

    subset: Tuple[str, ...]
    crashes: Dict[str, float]
    class_key: Tuple[Tuple[str, int], ...]
    label: str
    missing_outputs: Tuple[str, ...] = ()
    undelivered: Tuple[str, ...] = ()
    narrative: str = ""

    def undelivered_deps(self) -> List[str]:
        """The starving dependencies, without destination qualifiers."""
        return sorted({entry.split(" @ ")[0] for entry in self.undelivered})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "subset": list(self.subset),
            "crashes": {
                proc: self.crashes[proc] for proc in sorted(self.crashes)
            },
            "class": [[proc, window] for proc, window in self.class_key],
            "label": self.label,
            "missing_outputs": list(self.missing_outputs),
            "undelivered": list(self.undelivered),
            "narrative": self.narrative,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Counterexample":
        return cls(
            subset=tuple(data.get("subset", [])),
            crashes={
                proc: float(at) for proc, at in data.get("crashes", {}).items()
            },
            class_key=tuple(
                (str(proc), int(window)) for proc, window in data.get("class", [])
            ),
            label=str(data.get("label", "")),
            missing_outputs=tuple(data.get("missing_outputs", [])),
            undelivered=tuple(data.get("undelivered", [])),
            narrative=str(data.get("narrative", "")),
        )


@dataclass
class DependencyWitness:
    """Per-dependency proof summary: how delivery was witnessed."""

    dependency: str
    #: ``proven`` | ``refuted`` | ``local`` (every consumer replica
    #: holds a local copy: nothing crosses the network).
    status: str
    #: Distinct delivery chains observed across all proven regions:
    #: ``{"kind": "planned"|"takeover", "sender", "rank", "regions"}``.
    chains: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dependency": self.dependency,
            "status": self.status,
            "chains": [dict(chain) for chain in self.chains],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DependencyWitness":
        return cls(
            dependency=str(data.get("dependency", "")),
            status=str(data.get("status", "")),
            chains=tuple(dict(chain) for chain in data.get("chains", [])),
        )


@dataclass
class ProofResult:
    """The prover's verdict plus everything needed to audit it."""

    verdict: str  # "SAFE" | "UNSAFE" | "UNPROVEN"
    semantics: str
    detection: str
    processors: Tuple[str, ...]
    failures: int
    boundaries: Tuple[float, ...]
    subsets_checked: int
    subsets_pruned: int
    evaluations: int
    classes_collapsed: int
    witness_depth: int
    dependencies: List[DependencyWitness] = field(default_factory=list)
    refuted_regions: List[ClassRegion] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    never_rearms: List[Dict[str, Any]] = field(default_factory=list)
    unproven_subsets: Tuple[Tuple[str, ...], ...] = ()
    automaton: Dict[str, Any] = field(default_factory=dict)
    beyond: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def safe(self) -> bool:
        return self.verdict == "SAFE"

    @property
    def counterexample(self) -> Optional[Counterexample]:
        """The canonical (minimal subset, first class) counterexample."""
        return self.counterexamples[0] if self.counterexamples else None

    def refutes_class(self, key: Sequence[Tuple[str, int]]) -> bool:
        """True when (processor, window)-class ``key`` is provably fatal."""
        normalized = tuple(sorted((str(p), int(w)) for p, w in key))
        return any(
            region.contains(normalized) for region in self.refuted_regions
        )

    def refuted_classes(self, limit: int = 10000) -> List[str]:
        """Rendered refuted classes (capped enumeration of the regions)."""
        import itertools

        seen = set()
        for region in self.refuted_regions:
            axes = [
                [(proc, w) for w in range(lo, hi + 1)]
                for proc, (lo, hi) in sorted(region.windows.items())
            ]
            for combo in itertools.product(*axes):
                seen.add(render_class(tuple(sorted(combo))))
                if len(seen) >= limit:
                    return sorted(seen)
        return sorted(seen)

    def summary_line(self) -> str:
        if self.verdict == "SAFE":
            line = (
                "SAFE: tolerates %d failure(s) by construction, proven for "
                "all <=%d crash subsets (%d subsets checked, %d pruned, "
                "%d evaluations, %d classes collapsed)"
                % (
                    self.failures,
                    self.failures,
                    self.subsets_checked,
                    self.subsets_pruned,
                    self.evaluations,
                    self.classes_collapsed,
                )
            )
            if self.beyond:
                line += "; realized tolerance exceeds certified K (%d > %d)" % (
                    self.beyond["proven_failures"],
                    self.beyond["certified_failures"],
                )
            return line
        if self.verdict == "UNSAFE":
            cx = self.counterexample
            return "UNSAFE: refuted, see reproducer (counterexample %s)" % (
                cx.label if cx else "<missing>"
            )
        return "UNPROVEN: evaluation budget exhausted for subsets %s" % (
            ", ".join("{%s}" % ",".join(s) for s in self.unproven_subsets)
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": PROOF_SCHEMA_ID,
            "verdict": self.verdict,
            "semantics": self.semantics,
            "detection": self.detection,
            "processors": list(self.processors),
            "failures": self.failures,
            "boundaries": list(self.boundaries),
            "subsets_checked": self.subsets_checked,
            "subsets_pruned": self.subsets_pruned,
            "evaluations": self.evaluations,
            "classes_collapsed": self.classes_collapsed,
            "witness_depth": self.witness_depth,
            "dependencies": [w.to_dict() for w in self.dependencies],
            "refuted_regions": [r.to_dict() for r in self.refuted_regions],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "never_rearms": [dict(r) for r in self.never_rearms],
            "unproven_subsets": [list(s) for s in self.unproven_subsets],
            "automaton": dict(self.automaton),
        }
        if self.beyond:
            data["beyond"] = dict(self.beyond)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProofResult":
        from ...obs.schema import validate_stamp

        validate_stamp(data, PROOF_SCHEMA_ID, required=("verdict",))
        return cls(
            verdict=str(data["verdict"]),
            semantics=str(data.get("semantics", "")),
            detection=str(data.get("detection", "")),
            processors=tuple(data.get("processors", [])),
            failures=int(data.get("failures", 0)),
            boundaries=tuple(float(b) for b in data.get("boundaries", [])),
            subsets_checked=int(data.get("subsets_checked", 0)),
            subsets_pruned=int(data.get("subsets_pruned", 0)),
            evaluations=int(data.get("evaluations", 0)),
            classes_collapsed=int(data.get("classes_collapsed", 0)),
            witness_depth=int(data.get("witness_depth", 0)),
            dependencies=[
                DependencyWitness.from_dict(w)
                for w in data.get("dependencies", [])
            ],
            refuted_regions=[
                ClassRegion.from_dict(r) for r in data.get("refuted_regions", [])
            ],
            counterexamples=[
                Counterexample.from_dict(c)
                for c in data.get("counterexamples", [])
            ],
            never_rearms=[dict(r) for r in data.get("never_rearms", [])],
            unproven_subsets=tuple(
                tuple(s) for s in data.get("unproven_subsets", [])
            ),
            automaton=dict(data.get("automaton", {})),
            beyond=dict(data["beyond"]) if data.get("beyond") else None,
        )


def save_proof(result: ProofResult, path) -> None:
    """Write a proof artifact as stable, diff-friendly JSON.

    The persisted form adds the shared environment fingerprint (the
    one bench snapshots, campaign results, and ledger records stamp),
    so a proof can be traced back to the machine and commit that
    produced it; :meth:`ProofResult.from_dict` ignores the extra key.
    """
    from ...obs.environment import environment_fingerprint
    from ...obs.ledger.session import notify_artifact

    payload = result.to_dict()
    payload["environment"] = environment_fingerprint()
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    notify_artifact("proof", path)


def load_proof(path) -> ProofResult:
    """Load and schema-validate a ``repro.lint.proof/1`` artifact."""
    return ProofResult.from_dict(json.loads(Path(path).read_text()))


def counterexample_reproducer(
    counterexample: Counterexample,
    problem_spec: Mapping[str, Any],
    method: str,
    note: str = "",
) -> Dict[str, Any]:
    """Export a counterexample as a campaign-replayable reproducer.

    The emitted JSON is the standard
    ``repro.obs.campaign.reproducer/1`` format, so
    ``repro campaign run --repro FILE`` replays the prover's refutation
    through the simulator.  The campaign layer is imported lazily:
    proving itself never touches it.
    """
    from ...obs.campaign.model import make_reproducer
    from ...sim.faults import Crash, FailureScenario

    scenario = FailureScenario(
        crashes=tuple(
            Crash(processor=proc, at=at)
            for proc, at in sorted(counterexample.crashes.items())
        ),
        name="proof-counterexample(%s)" % counterexample.label,
    )
    if not note:
        note = (
            "Statically derived by repro.lint.proof (FT401): %s"
            % (counterexample.narrative or counterexample.label)
        )
    return make_reproducer(
        dict(problem_spec), method, scenario, note=note, expect="fail"
    )
