"""Drift detection over record histories, via the record comparator.

Two records of the *same lineage* — the same problem and command, or
the same benchmark scenario — should agree on their quality metrics
(makespan, pass rate, ``subsets_checked``); when they do not,
something drifted — the code, the environment, or the determinism
claim itself.  Each consecutive pair of a lineage goes through
:func:`~repro.obs.ledger.compare.compare_records`.

Timing metrics (``kind == "timing"``) are excluded by default: two
byte-identical runs still differ in wall clock, and "identical config
=> zero drift" is the contract ``repro runs diff`` is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .compare import ComparisonReport, compare_records
from .model import LedgerRecord

__all__ = ["DriftReport", "detect_drift", "diff_records", "group_lineages"]

Lineage = Tuple[str, str]


def group_lineages(
    records: Iterable[LedgerRecord],
) -> Dict[Lineage, List[LedgerRecord]]:
    """Records by (problem hash, scenario or command), oldest first.

    Records with no problem hash, no metrics and no scenario are
    skipped — there is nothing to track.
    """
    lineages: Dict[Lineage, List[LedgerRecord]] = {}
    for record in records:
        if not (record.problem_hash or record.metrics or record.scenario):
            continue
        key = (record.problem_hash, record.scenario or record.command)
        lineages.setdefault(key, []).append(record)
    for history in lineages.values():
        history.sort(key=lambda r: r.run_id)
    return lineages


def diff_records(
    baseline: LedgerRecord,
    current: LedgerRecord,
    include_timings: bool = False,
    noise_scale: float = 1.0,
) -> ComparisonReport:
    """Compare two records metric-by-metric; baseline first.

    ``.gate()`` on the report gives the CI exit code and ``.render()``
    the human table.  A CLI record is the single row ``run``: the
    records themselves name what ran.
    """
    return compare_records(
        [baseline],
        [current],
        include_timings=include_timings,
        noise_scale=noise_scale,
    )


@dataclass
class DriftReport:
    """All drift found across a record history, grouped by lineage."""

    #: lineage -> consecutive-pair comparison reports that gate.
    drifted: Dict[Lineage, List[ComparisonReport]] = field(
        default_factory=dict
    )
    pairs_compared: int = 0

    @property
    def clean(self) -> bool:
        return not self.drifted

    def render(self) -> str:
        if self.clean:
            return (
                f"drift: {self.pairs_compared} consecutive run pair(s) "
                "compared, no drift"
            )
        lines = [
            f"drift: {len(self.drifted)} lineage(s) drifted "
            f"({self.pairs_compared} pair(s) compared)"
        ]
        for (problem, command), reports in sorted(self.drifted.items()):
            lines.append(
                f"  problem {problem[:12] or '(none)'} / {command}:"
            )
            for report in reports:
                pair = f"{report.baseline_label} -> {report.current_label}"
                for row, error in sorted(report.failures.items()):
                    lines.append(f"    {pair}: {row} failed: {error}")
                for delta in report.drifted:
                    lines.append(f"    {pair}: {delta.describe()}")
        return "\n".join(lines)


def detect_drift(
    records: Iterable[LedgerRecord],
    include_timings: bool = False,
    noise_scale: float = 1.0,
) -> DriftReport:
    """Scan a record history for drift within each lineage.

    Each consecutive pair inside a lineage is diffed; pairs whose
    comparison gates land in the report.
    """
    report = DriftReport()
    for key, history in group_lineages(records).items():
        for baseline, current in zip(history, history[1:]):
            comparison = diff_records(
                baseline, current,
                include_timings=include_timings,
                noise_scale=noise_scale,
            )
            report.pairs_compared += 1
            if comparison.gate():
                report.drifted.setdefault(key, []).append(comparison)
    return report
