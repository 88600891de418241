"""``repro.obs.ledger``: the run ledger and the project's record model.

An append-only record of every recorded CLI invocation — what ran, on
which problem (by canonical content hash from
:func:`repro.graphs.io.problem_hash`), on which machine, what it
measured, how it exited, and which artifacts it produced (stored once
per content digest).  The ledger turns one-off terminal output into
queryable history: ``repro runs list/show/diff/query/gc/report``.

The same :class:`LedgerRecord` is the benchmark's record:
:mod:`repro.obs.bench` runs each scenario into one record and writes a
suite run as a ``BENCH_<suite>.jsonl`` slice (:func:`save_slice`).  One
comparator (:func:`compare_records`) gates both ``bench compare`` and
``runs diff``/``drift``, and one dashboard (:func:`render_dashboard`)
renders both ``bench report`` and ``runs report``.

Layering: this package imports :mod:`repro.analysis` for its tables
and never :mod:`repro.obs.bench` (which builds on it); the artifact
writers it hooks (:func:`~repro.obs.ledger.session.notify_artifact`)
stay no-ops until the CLI opens a
:func:`~repro.obs.ledger.session.ledger_session`.

Submodules
----------
:mod:`~repro.obs.ledger.model`
    The ``repro.obs.ledger/1`` record schema and :class:`Metric`.
:mod:`~repro.obs.ledger.store`
    Append-only records + content-addressed blobs on disk, with gc;
    the JSON-lines slice writer/loader.
:mod:`~repro.obs.ledger.session`
    The ambient recording session and its no-op annotation hooks.
:mod:`~repro.obs.ledger.query`
    Filters and the ``repro runs`` text views.
:mod:`~repro.obs.ledger.compare`
    The direction-aware, noise-thresholded record comparator.
:mod:`~repro.obs.ledger.drift`
    Lineage grouping and drift detection over record histories.
:mod:`~repro.obs.ledger.dashboard`
    The longitudinal HTML dashboard.
"""

from .compare import (
    ComparisonReport,
    MetricDelta,
    compare_records,
    record_metrics,
)
from .dashboard import render_dashboard
from .drift import DriftReport, detect_drift, diff_records, group_lineages
from .model import LEDGER_SCHEMA_ID, ArtifactRef, LedgerRecord, Metric
from .query import RunFilter, filter_records, render_record, runs_table
from .session import (
    LedgerSession,
    current_session,
    ledger_session,
    note_metric,
    note_problem,
    note_schedule,
    notify_artifact,
)
from .store import (
    DEFAULT_LEDGER_DIR,
    GcReport,
    LedgerStore,
    load_slice,
    new_run_id,
    save_slice,
)

__all__ = [
    "LEDGER_SCHEMA_ID",
    "DEFAULT_LEDGER_DIR",
    "ArtifactRef",
    "ComparisonReport",
    "DriftReport",
    "GcReport",
    "LedgerRecord",
    "LedgerSession",
    "LedgerStore",
    "Metric",
    "MetricDelta",
    "RunFilter",
    "compare_records",
    "current_session",
    "detect_drift",
    "diff_records",
    "filter_records",
    "group_lineages",
    "ledger_session",
    "load_slice",
    "new_run_id",
    "note_metric",
    "note_problem",
    "note_schedule",
    "notify_artifact",
    "record_metrics",
    "render_dashboard",
    "render_record",
    "runs_table",
    "save_slice",
]
