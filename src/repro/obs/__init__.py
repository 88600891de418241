"""``repro.obs`` — the observability layer (metrics, traces, decisions).

Three complementary views on a run, all stdlib-only:

* :mod:`repro.obs.metrics` — a registry of counters, gauges,
  histograms (exact quantiles) and perf_counter timers;
* :mod:`repro.obs.tracing` — nestable spans in a ring buffer,
  exported as Chrome trace-event JSON (Perfetto / ``chrome://tracing``)
  and plain summaries;
* :mod:`repro.obs.decisions` — structured scheduler decision records
  (candidate pressures, winners, tie-breaks, timeout tables) behind
  ``repro explain``.

:mod:`repro.obs.runtime` holds the process-wide active
:class:`Instrumentation`; instrumented code is free when it is
disabled (the default).  See ``docs/observability.md``.

:mod:`repro.obs.bench` builds on all three: it runs registered
benchmark scenarios under instrumentation into run records written as
``BENCH_<suite>.jsonl`` slices, gates on regressions, and renders
trajectory dashboards (``repro bench``, ``docs/benchmarks.md``).
:mod:`repro.obs.campaign` is its runtime-side sibling: systematic
fault-injection campaigns with coverage accounting and trace-level
failure diagnosis (``repro campaign``, ``docs/campaigns.md``).
Neither is re-exported here — they import :mod:`repro.core`, and
``repro.obs`` proper must stay a leaf the schedulers can import.
"""

from .decisions import (
    CandidateEvaluation,
    DecisionLog,
    DecisionRecord,
    OperationRationale,
    TimeoutNote,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    registry,
    reset_registry,
)
from .runtime import (
    Instrumentation,
    get_instrumentation,
    install,
    instrumented,
)
from .tracing import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "CandidateEvaluation",
    "DecisionLog",
    "DecisionRecord",
    "OperationRationale",
    "TimeoutNote",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "registry",
    "reset_registry",
    "Instrumentation",
    "get_instrumentation",
    "install",
    "instrumented",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
]
