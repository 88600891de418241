"""The run ledger: append-only store, blob dedupe, sessions, drift.

These tests drive the library layer directly (the CLI path is covered
by ``test_ledger_cli.py``): records refuse overwrite, blobs are stored
once per digest and verified on read, the ambient session hooks are
no-ops when inactive, identical records diff clean, injected
regressions gate, and gc drops exactly what the retention policy says.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.obs.ledger import (
    ArtifactRef,
    LedgerRecord,
    LedgerStore,
    Metric,
    RunFilter,
    current_session,
    detect_drift,
    diff_records,
    filter_records,
    ledger_session,
    new_run_id,
    note_metric,
    note_problem,
    note_schedule,
    notify_artifact,
    record_metrics,
    render_dashboard,
    render_record,
    runs_table,
)
from repro.obs.ledger.model import LEDGER_SCHEMA_ID
from repro.core import schedule_solution1
from repro.paper.examples import first_example_problem


def _record(run_id, makespan=9.4, command="schedule", problem="abc123",
            wall=0.05, exit_code=0, counters=None):
    record = LedgerRecord(
        run_id=run_id,
        created=f"2026-08-0{run_id[0]}T00:00:00Z",
        command=command,
        problem_hash=problem,
        wall_s=wall,
        exit_code=exit_code,
    )
    record.metrics["makespan"] = Metric(makespan, unit="time")
    record.metrics["wall_s"] = Metric(
        wall, unit="s", kind="timing", noise=0.2
    )
    if counters:
        record.obs = {"counters": dict(counters)}
    return record


# ----------------------------------------------------------------------
# Model
# ----------------------------------------------------------------------
def test_record_roundtrip_and_verdict():
    record = _record("1-a", exit_code=0)
    record.artifacts.append(
        ArtifactRef(kind="proof", name="p.json", digest="d" * 64, size=12)
    )
    data = record.to_dict()
    assert data["schema"] == LEDGER_SCHEMA_ID
    assert data["verdict"] == "ok"
    rebuilt = LedgerRecord.from_dict(json.loads(json.dumps(data)))
    assert rebuilt.to_dict() == data
    assert _record("1-b", exit_code=2).verdict == "fail"


def test_record_rejects_wrong_schema():
    with pytest.raises(ValueError, match="expected schema"):
        LedgerRecord.from_dict({"schema": "bogus/9", "run_id": "x",
                                "created": "t", "command": "c"})
    with pytest.raises(ValueError, match="missing required field"):
        LedgerRecord.from_dict({"schema": LEDGER_SCHEMA_ID})
    data = _record("1-a").to_dict()
    data["metrics"]["makespan"]["direction"] = "sideways"
    with pytest.raises(ValueError, match="metric 'makespan'.*direction"):
        LedgerRecord.from_dict(data)


def test_ledger_never_imports_bench():
    """Imports flow one way: repro.obs.bench builds on the ledger."""
    code = (
        "import sys, repro.obs.ledger; "
        "print([m for m in sys.modules if m.startswith('repro.obs.bench')])"
    )
    source_root = Path(repro.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(source_root)},
    ).stdout.strip()
    assert loaded == "[]"


def test_run_ids_sort_chronologically():
    first, second = new_run_id(), new_run_id()
    assert first != second
    assert first.split("-")[0] <= second.split("-")[0]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_is_append_only(tmp_path):
    store = LedgerStore(tmp_path)
    record = _record("20260801T000000Z-aaaa0000")
    store.append(record)
    with pytest.raises(FileExistsError, match="append-only"):
        store.append(record)
    assert store.run_ids() == ["20260801T000000Z-aaaa0000"]
    assert store.load("20260801").run_id == record.run_id


def test_store_prefix_resolution(tmp_path):
    store = LedgerStore(tmp_path)
    store.append(_record("20260801T000000Z-aaaa0000"))
    store.append(_record("20260802T000000Z-bbbb0000"))
    assert store.load("20260802").run_id.endswith("bbbb0000")
    with pytest.raises(KeyError, match="ambiguous"):
        store.load("2026")
    with pytest.raises(KeyError, match="no ledger record"):
        store.load("1999")


def test_blobs_deduplicate_and_verify(tmp_path):
    store = LedgerStore(tmp_path)
    digest = store.put_blob(b"same bytes")
    assert store.put_blob(b"same bytes") == digest
    assert store.blob_digests() == [digest]
    assert store.open_blob(digest) == b"same bytes"
    # Corruption is caught against the content address.
    store._blob_path(digest).write_bytes(b"tampered")
    with pytest.raises(ValueError, match="corrupt"):
        store.open_blob(digest)


def test_gc_retention_and_orphan_sweep(tmp_path):
    store = LedgerStore(tmp_path)
    shared = store.put_blob(b"shared artifact")
    orphan = store.put_blob(b"never referenced")
    for day in (1, 2, 3):
        record = _record(f"2026080{day}T000000Z-{day:08d}")
        record.artifacts.append(
            ArtifactRef("proof", "p.json", shared, 15)
        )
        store.append(record)

    dry = store.gc(keep=1, dry_run=True)
    assert len(dry.removed_records) == 2 and dry.kept_records == 1
    assert store.run_ids() and len(store.run_ids()) == 3  # untouched

    report = store.gc(keep=1)
    assert [r[:8] for r in report.removed_records] == ["20260801",
                                                       "20260802"]
    assert report.removed_blobs == [orphan]
    assert store.run_ids() == ["20260803T000000Z-00000003"]
    assert store.blob_digests() == [shared]  # still referenced

    before = store.gc(before="2027-01-01T00:00:00Z")
    assert before.kept_records == 0
    assert store.run_ids() == [] and store.blob_digests() == []


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
def test_hooks_are_noops_without_session(tmp_path):
    assert current_session() is None
    # None of these may raise or record anything.
    note_problem(first_example_problem(failures=1))
    note_schedule(schedule_solution1(
        first_example_problem(failures=1)).schedule)
    note_metric("makespan", 9.4)
    notify_artifact("proof", tmp_path / "missing.json")
    assert current_session() is None


def test_session_records_everything(tmp_path):
    store = LedgerStore(tmp_path / "ledger")
    problem = first_example_problem(failures=1)
    artifact = tmp_path / "proof.json"
    artifact.write_text('{"verdict": "SAFE"}')
    with ledger_session(store, "prove", argv=["prove", "--paper",
                                             "fig17"]) as session:
        assert current_session() is session
        note_problem(problem)
        note_schedule(schedule_solution1(problem).schedule)
        note_metric("makespan", 9.4, unit="time")
        notify_artifact("proof", artifact)
        notify_artifact("proof", artifact)  # echo-identical: once
        session.finish(0, {"counters": {"scheduler.steps": 7.0}})
    assert current_session() is None

    record = store.load(session.record.run_id)
    assert record.command == "prove" and record.verdict == "ok"
    assert len(record.problem_hash) == 64
    assert record.problem_hashes == [record.problem_hash]
    assert len(record.schedule_hash) == 64
    assert record.metric_value("makespan") == 9.4
    assert record.obs["counters"]["scheduler.steps"] == 7.0
    assert record.environment.get("python")
    assert len(record.artifacts) == 1
    ref = record.artifacts[0]
    assert ref.kind == "proof" and ref.name == "proof.json"
    assert store.open_blob(ref.digest) == artifact.read_bytes()


def test_session_is_not_reentrant(tmp_path):
    store = LedgerStore(tmp_path)
    with ledger_session(store, "a"):
        with pytest.raises(RuntimeError, match="already active"):
            with ledger_session(store, "b"):
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# Drift
# ----------------------------------------------------------------------
def test_identical_records_diff_clean():
    baseline = _record("1-a", counters={"scheduler.steps": 7})
    current = _record("2-b", wall=0.5,  # wall clock always differs
                      counters={"scheduler.steps": 7})
    report = diff_records(baseline, current)
    assert report.gate() == 0
    assert not report.regressions
    # Timings are excluded by default, included on request.
    names = {d.metric for d in report.deltas}
    assert "wall_s" not in names
    with_timings = diff_records(baseline, current, include_timings=True)
    assert "wall_s" in {d.metric for d in with_timings.deltas}


def test_injected_makespan_regression_gates():
    baseline = _record("1-a", makespan=9.4)
    regressed = _record("2-b", makespan=10.5)
    report = diff_records(baseline, regressed)
    assert report.gate() == 1
    assert [d.metric for d in report.regressions] == ["makespan"]


def test_counter_movement_is_drift():
    baseline = _record("1-a", counters={"scheduler.steps": 7})
    moved = _record("2-b", counters={"scheduler.steps": 9})
    metrics = record_metrics(baseline)
    assert metrics["obs.scheduler.steps"].direction == "exact"
    assert diff_records(baseline, moved).gate() == 1


def test_detect_drift_groups_by_lineage():
    history = [
        _record("1-a", makespan=9.4),
        _record("2-b", makespan=9.4),
        _record("3-c", makespan=11.0),              # drifts
        _record("4-d", problem="other", makespan=5.0),
        _record("5-e", problem="other", makespan=5.0),  # clean lineage
    ]
    report = detect_drift(history)
    assert not report.clean
    assert report.pairs_compared == 3
    assert list(report.drifted) == [("abc123", "schedule")]
    assert "regressed" in report.render()
    assert detect_drift(history[:2]).clean


# ----------------------------------------------------------------------
# Query + rendering
# ----------------------------------------------------------------------
def test_filter_records():
    records = [
        _record("1-a"),
        _record("2-b", command="prove"),
        _record("3-c", exit_code=1),
        _record("4-d", problem="zzz999"),
    ]
    assert len(filter_records(records, RunFilter())) == 4
    assert [r.run_id for r in filter_records(
        records, RunFilter(command="prove"))] == ["2-b"]
    assert [r.run_id for r in filter_records(
        records, RunFilter(verdict="fail"))] == ["3-c"]
    assert [r.run_id for r in filter_records(
        records, RunFilter(problem="abc"))] == ["1-a", "2-b", "3-c"]
    assert [r.run_id for r in filter_records(
        records, RunFilter(limit=2))] == ["3-c", "4-d"]
    assert [r.run_id for r in filter_records(
        records, RunFilter(since="2026-08-03"))] == ["3-c", "4-d"]


def test_text_renderings_mention_the_facts():
    record = _record("1-a", counters={"scheduler.steps": 7})
    record.artifacts.append(ArtifactRef("proof", "p.json", "e" * 64, 9))
    table = runs_table([record]).render()
    assert "schedule" in table and "abc123" in table
    shown = render_record(record)
    assert "makespan" in shown and "scheduler.steps" in shown
    assert "sha256:" in shown


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def test_dashboard_renders_history_and_flags_drift():
    history = [
        _record("1-a", makespan=9.4, counters={"proof.subsets": 7}),
        _record("2-b", makespan=9.4, counters={"proof.subsets": 7}),
        _record("3-c", makespan=11.0, counters={"proof.subsets": 7}),
    ]
    page = render_dashboard(history)
    assert page.startswith("<!DOCTYPE html>")
    assert "<svg" in page                      # sparklines present
    assert "makespan" in page and "wall_s" in page
    # The wall_s metric and the record's own wall_s make one row.
    assert page.count("<td>wall_s</td>") == 1
    assert "drifted metric(s)" in page         # regression badge
    clean = render_dashboard(history[:2])
    assert "no drift" in clean
    with pytest.raises(ValueError, match="no ledger records"):
        render_dashboard([])
