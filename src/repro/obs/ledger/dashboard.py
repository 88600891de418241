"""The longitudinal dashboard: record history -> standalone HTML.

One self-contained HTML page (no external assets, viewable from a CI
artifact or ``file://``) charting how each lineage behaved over its
history.  It renders both ``repro runs report`` (ledger records) and
``repro bench report`` (the records of ``BENCH_<suite>.jsonl``
slices):

* a header card with record count, time span, distinct problems, and
  the latest environment fingerprint;
* a run summary table (one row per record, like ``repro runs list``);
* per lineage (:func:`repro.obs.ledger.drift.group_lineages`: one per
  problem and command, or per benchmark scenario), one table with each
  metric's latest value, change since the lineage's first record, an
  inline SVG sparkline (:func:`repro.analysis.svg.sparkline`) over the
  whole history, and a badge from the latest-vs-previous comparison
  via :func:`repro.obs.ledger.drift.diff_records`.

Wall clock is always charted even though timing metrics never gate
drift — watching it trend is the point of keeping history.  A record
without a ``wall_s`` metric contributes its own ``wall_s`` field.
"""

from __future__ import annotations

import html
from typing import Dict, List, Sequence

from ...analysis.report import HtmlCell, Table, format_value
from ...analysis.svg import sparkline
from .compare import record_metrics
from .drift import Lineage, diff_records, group_lineages
from .model import LedgerRecord, Metric
from .query import runs_table

__all__ = ["render_dashboard"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       color: #1b1b1b; background: #fafafa; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.env { color: #555; font-size: 0.85rem; margin-bottom: 1.5rem; }
table.report { border-collapse: collapse; background: white;
               box-shadow: 0 1px 2px rgba(0,0,0,0.08);
               margin-top: 1.5rem; }
table.report caption { text-align: left; font-weight: 600;
                       padding: 0.4rem 0; }
table.report th, table.report td { border: 1px solid #ddd;
    padding: 0.3rem 0.6rem; font-size: 0.9rem; text-align: left; }
table.report th { background: #f0f0f0; }
.badge { display: inline-block; padding: 0.1rem 0.5rem;
         border-radius: 0.6rem; font-size: 0.8rem; color: white; }
.badge.ok { background: #2a7; } .badge.improved { background: #17a; }
.badge.regressed { background: #c33; } .badge.added { background: #888; }
.badge.removed { background: #c80; } .badge.new { background: #888; }
td svg { vertical-align: middle; }
"""

_VERDICT_COLOR = {
    "regressed": "#c33",
    "improved": "#17a",
    "ok": "#1a6",
    "added": "#888",
}


def _badge(verdict: str) -> HtmlCell:
    return HtmlCell(
        markup=f'<span class="badge {html.escape(verdict)}">'
        f"{html.escape(verdict)}</span>",
        text=verdict,
    )


def _charted(record: LedgerRecord) -> Dict[str, Metric]:
    """The metrics charted for one record: one ``wall_s`` at most."""
    metrics = record_metrics(record)
    metrics.setdefault(
        "wall_s", Metric(record.wall_s, unit="s", kind="timing")
    )
    return metrics


def _lineage_table(key: Lineage, history: Sequence[LedgerRecord]) -> Table:
    problem, command = key
    verdicts: Dict[str, str] = {}
    if len(history) > 1:
        report = diff_records(history[-2], history[-1], include_timings=True)
        verdicts = {d.metric: d.verdict for d in report.deltas}

    title = f"{command} — problem {problem[:12]}" if problem else command
    table = Table(
        headers=("metric", "latest", "unit", "vs first", "trend", "status"),
        title=f"{title} · {len(history)} run(s)",
    )
    charted = [_charted(record) for record in history]
    for name in sorted({name for metrics in charted for name in metrics}):
        points = [metrics[name] for metrics in charted if name in metrics]
        series: List[float] = [metric.value for metric in points]
        latest_value, first = series[-1], series[0]
        vs_first = (
            f"{(latest_value - first) / abs(first):+.2%}" if first else "-"
        )
        # A record's own wall clock is charted, never judged.
        verdict = verdicts.get(name, "ok" if name == "wall_s" else "new")
        table.add(
            name,
            latest_value,
            points[-1].unit,
            vs_first,
            HtmlCell(
                markup=sparkline(
                    series, color=_VERDICT_COLOR.get(verdict, "#888"),
                    label=f"{command}:{name} over runs",
                ),
                text=" ".join(format_value(v) for v in series),
            ),
            _badge(verdict),
        )
    return table


def render_dashboard(
    records: Sequence[LedgerRecord],
    title: str = "repro run ledger",
) -> str:
    """Render a record history as one standalone HTML document."""
    if not records:
        raise ValueError("no ledger records to render")
    ordered = sorted(records, key=lambda r: r.run_id)
    latest = ordered[-1]

    lineages = group_lineages(ordered)
    drift_count = pairs = 0
    for history in lineages.values():
        if len(history) > 1:
            pairs += 1
            report = diff_records(history[-2], history[-1])
            drift_count += (
                len(report.regressions) + len(report.removed)
                + len(report.failures)
            )

    env = latest.environment
    env_line = ", ".join(
        f"{key}={env.get(key, '?')}"
        for key in ("platform", "python", "commit")
    )
    if drift_count:
        status = (
            f'<span class="badge regressed">{drift_count} drifted '
            "metric(s) in the latest runs</span>"
        )
    elif pairs:
        status = '<span class="badge ok">no drift in the latest runs</span>'
    else:
        status = (
            '<span class="badge new">one run per lineage — no comparison '
            "basis</span>"
        )
    span = (
        f"{ordered[0].created} → {latest.created}"
        if len(ordered) > 1
        else latest.created
    )
    problems = {
        record.problem_hash for record in ordered if record.problem_hash
    }

    sections = [runs_table(ordered).render_html()]
    for key in sorted(lineages):
        sections.append(_lineage_table(key, lineages[key]).render_html())

    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        f"<meta charset=\"utf-8\">\n<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        f"<h1>{html.escape(title)}</h1>\n"
        f"<p>{status}</p>\n"
        f'<p class="env">{len(ordered)} run(s) · '
        f"{len(problems)} distinct problem(s) · {html.escape(span)} · "
        f"{html.escape(env_line)}</p>\n"
        + "\n".join(sections)
        + "\n</body>\n</html>\n"
    )
