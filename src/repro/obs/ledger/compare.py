"""Record comparison: direction-aware, noise-thresholded verdicts.

The comparator is the one regression gate of the project.  It diffs
two record sequences row by row — ``repro bench compare`` passes one
record per benchmark scenario, ``repro runs diff``/``drift`` a single
CLI record whose row is ``run`` — and its report exits non-zero
exactly when it finds a *regression*:

* a metric that moved against its declared direction by more than its
  declared noise threshold.  ``"exact"`` metrics regress on any drift
  beyond noise (both directions); improvements in ``"lower"``/
  ``"higher"`` metrics are reported but never gate;
* a row whose current record failed while its baseline did not — a
  scenario that raised is a regression whatever its metrics say;
* by default, a metric or row that disappeared (``removed``): silently
  dropping a tracked number is itself a regression of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...analysis.report import Table
from .model import LedgerRecord, Metric

__all__ = [
    "ComparisonReport",
    "MetricDelta",
    "compare_records",
    "record_metrics",
]

#: Relative epsilon under which two values count as identical even
#: with a zero noise threshold (float formatting / JSON round-trips).
_EXACT_EPS = 1e-9

#: Verdicts, in decreasing severity; ``regressed``/``removed`` gate.
VERDICTS = ("regressed", "removed", "added", "improved", "ok")


def record_metrics(record: LedgerRecord) -> Dict[str, Metric]:
    """A record's comparator-ready metrics: explicit + obs counters.

    Obs counters are exactly reproducible by design, so any movement
    in them between identical configs is drift worth flagging.
    """
    metrics = dict(record.metrics)
    for name, value in record.obs.get("counters", {}).items():
        key = f"obs.{name}"
        if key not in metrics and isinstance(value, (int, float)):
            metrics[key] = Metric(
                value=float(value), direction="exact", kind="counter"
            )
    return metrics


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two records of the same row."""

    row: str
    metric: str
    baseline: Optional[Metric]
    current: Optional[Metric]
    verdict: str

    @property
    def relative_change(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        base = self.baseline.value
        if base == 0:
            return None if self.current.value == 0 else float("inf")
        return (self.current.value - base) / abs(base)

    def describe(self) -> str:
        """One human line naming the metric and what happened."""
        label = f"{self.row}:{self.metric}"
        if self.verdict == "removed":
            return f"{label} removed (was {self.baseline.value:g})"
        if self.verdict == "added":
            return f"{label} added ({self.current.value:g})"
        change = self.relative_change
        arrow = f"{self.baseline.value:g} -> {self.current.value:g}"
        if change is not None:
            arrow += f" ({change:+.2%})"
        return f"{label} {self.verdict}: {arrow}"


def _judge(baseline: Metric, current: Metric, noise_scale: float) -> str:
    base, cur = baseline.value, current.value
    scale = max(abs(base), abs(cur), _EXACT_EPS)
    rel = (cur - base) / scale
    noise = max(baseline.noise * noise_scale, current.noise * noise_scale,
                _EXACT_EPS)
    if abs(rel) <= noise:
        return "ok"
    if baseline.direction == "exact":
        return "regressed"
    worse = rel > 0 if baseline.direction == "lower" else rel < 0
    return "regressed" if worse else "improved"


@dataclass
class ComparisonReport:
    """Every metric delta between baseline and current records."""

    baseline_label: str
    current_label: str
    deltas: List[MetricDelta] = field(default_factory=list)
    #: Rows whose current record failed (and whose baseline did not),
    #: with the failure text.
    failures: Dict[str, str] = field(default_factory=dict)
    #: True when the two sides came from different environments —
    #: timing verdicts are then advisory at best.
    environments_differ: bool = False

    def with_verdict(self, verdict: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == verdict]

    @property
    def regressions(self) -> List[MetricDelta]:
        return self.with_verdict("regressed")

    @property
    def removed(self) -> List[MetricDelta]:
        return self.with_verdict("removed")

    def gate(self, fail_on_removed: bool = True) -> int:
        """CI exit code: 1 on regression, failure (or removal), else 0."""
        if self.regressions or self.failures:
            return 1
        if fail_on_removed and self.removed:
            return 1
        return 0

    def to_table(self) -> Table:
        table = Table(
            headers=("row", "metric", "baseline", "current",
                     "change", "verdict"),
            title=(
                f"compare: {self.baseline_label} (baseline) vs "
                f"{self.current_label}"
            ),
        )
        order = {verdict: i for i, verdict in enumerate(VERDICTS)}
        for delta in sorted(
            self.deltas,
            key=lambda d: (order[d.verdict], d.row, d.metric),
        ):
            change = delta.relative_change
            table.add(
                delta.row,
                delta.metric,
                delta.baseline.value if delta.baseline else None,
                delta.current.value if delta.current else None,
                f"{change:+.2%}" if change is not None else "-",
                delta.verdict,
            )
        return table

    def render(self) -> str:
        lines = [self.to_table().render()]
        if self.environments_differ:
            lines.append(
                "note: the two sides come from different environments; "
                "timing verdicts are advisory"
            )
        for row, error in sorted(self.failures.items()):
            lines.append(f"REGRESSION: {row} failed: {error}")
        for delta in self.regressions + self.removed:
            lines.append(f"REGRESSION: {delta.describe()}")
        if not (self.regressions or self.removed or self.failures):
            lines.append("no regressions")
        return "\n".join(lines)


def _label(records: Sequence[LedgerRecord]) -> str:
    if not records:
        return "-"
    first = records[0]
    return (first.label or first.suite) if first.suite else first.run_id


def _environments_differ(
    baseline: Sequence[LedgerRecord], current: Sequence[LedgerRecord]
) -> bool:
    if not baseline or not current:
        return False
    base, cur = baseline[0].environment, current[0].environment
    return any(base.get(key) != cur.get(key) for key in ("platform", "python"))


def compare_records(
    baseline: Sequence[LedgerRecord],
    current: Sequence[LedgerRecord],
    include_timings: bool = True,
    noise_scale: float = 1.0,
) -> ComparisonReport:
    """Diff ``current`` against ``baseline`` row by row, metric by metric.

    Records pair up by row: the bench scenario, or ``run`` for a CLI
    record.  Each side's metrics are :func:`record_metrics` (explicit
    metrics plus obs counters).
    ``include_timings=False`` drops ``kind == "timing"`` metrics from
    the comparison entirely (the CI mode: machines differ).
    ``noise_scale`` multiplies every noise threshold — ``2.0`` halves
    the gate's sensitivity without editing the records.
    """
    report = ComparisonReport(
        baseline_label=_label(baseline),
        current_label=_label(current),
        environments_differ=_environments_differ(baseline, current),
    )
    base_rows = {record.scenario or "run": record for record in baseline}
    cur_rows = {record.scenario or "run": record for record in current}
    for row in sorted(set(base_rows) | set(cur_rows)):
        base_record, cur_record = base_rows.get(row), cur_rows.get(row)
        if cur_record is not None and cur_record.verdict == "fail" and (
            base_record is None or base_record.verdict == "ok"
        ):
            report.failures[row] = (
                cur_record.error or f"exit code {cur_record.exit_code}"
            )
        base_metrics = record_metrics(base_record) if base_record else {}
        cur_metrics = record_metrics(cur_record) if cur_record else {}
        for name in sorted(set(base_metrics) | set(cur_metrics)):
            base, cur = base_metrics.get(name), cur_metrics.get(name)
            if not include_timings and (base or cur).kind == "timing":
                continue
            if base is None:
                verdict = "added"
            elif cur is None:
                verdict = "removed"
            else:
                verdict = _judge(base, cur, noise_scale)
            report.deltas.append(MetricDelta(
                row=row, metric=name,
                baseline=base, current=cur, verdict=verdict,
            ))
    return report
