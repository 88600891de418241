"""Comparing benchmark slices, which is the run ledger's comparator.

``repro bench compare`` pairs the records of two slices by scenario
and gates on :func:`~repro.obs.ledger.compare_records` — the same
direction-aware, noise-thresholded comparison behind ``runs diff``
and ``runs drift``.  This module re-exports it under the bench
package so existing callers can keep importing it from here; it
defines nothing of its own.
"""

from ..ledger.compare import (
    ComparisonReport,
    MetricDelta,
    compare_records,
    record_metrics,
)

__all__ = [
    "ComparisonReport",
    "MetricDelta",
    "compare_records",
    "record_metrics",
]
