"""Querying the ledger: filters and the ``repro runs`` text views.

A :class:`RunFilter` narrows a record history by problem-hash prefix,
command, verdict, creation-time window, and count; the CLI builds one
from ``repro runs list/query`` flags and :func:`filter_records` applies
it.  :func:`runs_table` renders the survivors as the one-line-per-run
listing, newest last (so the tail of the output is the most recent
history, like ``git log --reverse``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ...analysis.report import Table
from .model import LedgerRecord

__all__ = ["RunFilter", "filter_records", "render_record", "runs_table"]


@dataclass
class RunFilter:
    """Which records to keep; empty fields match everything."""

    problem: str = ""
    command: str = ""
    verdict: str = ""
    since: str = ""
    until: str = ""
    label: str = ""
    limit: Optional[int] = None

    def matches(self, record: LedgerRecord) -> bool:
        if self.problem and not any(
            h.startswith(self.problem)
            for h in [record.problem_hash, *record.problem_hashes]
        ):
            return False
        if self.command and record.command != self.command:
            return False
        if self.verdict and record.verdict != self.verdict:
            return False
        if self.since and record.created < self.since:
            return False
        if self.until and record.created > self.until:
            return False
        if self.label and self.label not in record.label:
            return False
        return True


def filter_records(
    records: Iterable[LedgerRecord], spec: RunFilter
) -> List[LedgerRecord]:
    """The records matching ``spec``, oldest first; ``limit`` keeps
    the newest N."""
    kept = [record for record in records if spec.matches(record)]
    kept.sort(key=lambda r: r.run_id)
    if spec.limit is not None and spec.limit >= 0:
        kept = kept[max(len(kept) - spec.limit, 0):]
    return kept


def runs_table(records: Iterable[LedgerRecord]) -> Table:
    """The ``repro runs list`` table: one row per run, oldest first."""
    table = Table(
        headers=("run", "created", "command", "problem", "verdict",
                 "wall_s", "artifacts"),
        title="ledger runs",
    )
    for record in records:
        table.add(
            record.run_id,
            record.created,
            f"{record.command} {record.scenario}".strip(),
            record.problem_hash[:12] if record.problem_hash else "-",
            record.verdict,
            f"{record.wall_s:.3f}",
            len(record.artifacts),
        )
    return table


def render_record(record: LedgerRecord) -> str:
    """The ``repro runs show`` view: everything one record knows."""
    lines = [
        f"run {record.run_id}",
        f"  created      {record.created}",
        f"  command      {record.command}",
        f"  argv         {' '.join(record.argv) or '-'}",
        f"  verdict      {record.verdict} (exit {record.exit_code})",
        f"  wall         {record.wall_s:.3f}s",
    ]
    if record.label:
        lines.append(f"  label        {record.label}")
    if record.scenario:
        lines.append(
            f"  scenario     {record.scenario} (suite {record.suite})"
        )
    if record.params:
        params = ", ".join(
            f"{key}={value}" for key, value in sorted(record.params.items())
        )
        lines.append(f"  params       {params}")
    if record.error:
        lines.append(f"  error        {record.error}")
    if record.problem_hash:
        lines.append(f"  problem      {record.problem_hash}")
    for extra in record.problem_hashes:
        if extra != record.problem_hash:
            lines.append(f"               {extra}")
    if record.schedule_hash:
        lines.append(f"  schedule     {record.schedule_hash}")
    if record.environment:
        env = ", ".join(
            f"{key}={value}"
            for key, value in sorted(record.environment.items())
        )
        lines.append(f"  environment  {env}")
    if record.metrics:
        lines.append("  metrics:")
        for name, metric in sorted(record.metrics.items()):
            lines.append(
                f"    {name:<28s} {metric.value}"
                + (f" {metric.unit}" if metric.unit else "")
                + f"  [{metric.kind}/{metric.direction}]"
            )
    counters = record.obs.get("counters", {})
    if counters:
        lines.append("  obs counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:<28s} {value}")
    if record.artifacts:
        lines.append("  artifacts:")
        for ref in record.artifacts:
            lines.append(
                f"    {ref.kind:<16s} {ref.name}  "
                f"sha256:{ref.digest[:16]}  {ref.size}B"
            )
    return "\n".join(lines)
