"""The benchmark's data model, which is the run ledger's record model.

A scenario run is one :class:`~repro.obs.ledger.LedgerRecord` whose
metrics are :class:`~repro.obs.ledger.Metric` objects; a suite run is
a ``BENCH_<suite>.jsonl`` slice of those records, written and read by
:func:`~repro.obs.ledger.save_slice` and
:func:`~repro.obs.ledger.load_slice`.  This module re-exports those
names under the bench package so scenario code and existing callers
can keep importing them from here; it defines nothing of its own.
"""

from ..ledger.model import LedgerRecord, Metric
from ..ledger.store import load_slice, save_slice

__all__ = ["LedgerRecord", "Metric", "load_slice", "save_slice"]
