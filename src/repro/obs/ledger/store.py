"""The append-only, content-addressed ledger store (``.repro/ledger/``).

Layout::

    .repro/ledger/
        records/<run_id>.json           one schema-stamped record per run
        blobs/sha256/<d[:2]>/<digest>   artifact bytes, stored once per digest

Records are **append-only**: a run id is written exactly once and
:meth:`LedgerStore.append` refuses to overwrite.  Blobs are
**content-addressed**: the file name *is* the SHA-256 of the bytes, so
byte-identical artifacts from different runs occupy one file and a
blob can always be integrity-checked against its own name.

Garbage collection (:meth:`LedgerStore.gc`) is the only mutation:
drop records beyond a retention policy (count and/or age), then sweep
blobs no surviving record references.

A *slice* is a plain file of records outside the store, one JSON line
per record — the format ``repro runs query`` prints.  ``repro bench
run`` writes its ``BENCH_<suite>.jsonl`` files as slices
(:func:`save_slice`), and every consumer reads them back through
:func:`load_slice`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..environment import utc_now
from .model import LedgerRecord

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "GcReport",
    "LedgerStore",
    "load_slice",
    "new_run_id",
    "save_slice",
]

#: Where the ledger lives unless ``REPRO_LEDGER`` / ``--ledger-dir``
#: says otherwise — relative to the working directory, like the bench
#: slices.
DEFAULT_LEDGER_DIR = ".repro/ledger"


def new_run_id() -> str:
    """A fresh, chronologically sortable run id.

    ``<compact UTC stamp>-<8 random hex>``: the stamp makes plain
    ``sorted()`` chronological, the random suffix keeps two runs in
    the same second (parallel CI shards) distinct.
    """
    stamp = utc_now().replace("-", "").replace(":", "")
    suffix = hashlib.sha256(os.urandom(16)).hexdigest()[:8]
    return f"{stamp}-{suffix}"


@dataclass
class GcReport:
    """What one :meth:`LedgerStore.gc` sweep did (or would do)."""

    kept_records: int = 0
    removed_records: List[str] = field(default_factory=list)
    removed_blobs: List[str] = field(default_factory=list)
    dry_run: bool = False

    def render(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"gc: kept {self.kept_records} record(s), {verb} "
            f"{len(self.removed_records)} record(s) and "
            f"{len(self.removed_blobs)} unreferenced blob(s)"
        )


class LedgerStore:
    """Filesystem access to one ``.repro/ledger`` directory."""

    def __init__(self, root: Union[str, Path] = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.blobs_dir = self.root / "blobs" / "sha256"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def append(self, record: LedgerRecord) -> Path:
        """Persist a new record; refuses to overwrite an existing run id."""
        self.records_dir.mkdir(parents=True, exist_ok=True)
        path = self.records_dir / f"{record.run_id}.json"
        if path.exists():
            raise FileExistsError(
                f"ledger is append-only: run {record.run_id} already recorded"
            )
        path.write_text(
            json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    def run_ids(self) -> List[str]:
        """Every recorded run id, oldest first."""
        if not self.records_dir.is_dir():
            return []
        return sorted(
            path.stem for path in self.records_dir.glob("*.json")
        )

    def resolve(self, run_id: str) -> str:
        """A full run id from an exact id or an unambiguous prefix."""
        ids = self.run_ids()
        if run_id in ids:
            return run_id
        matches = [i for i in ids if i.startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no ledger record matches {run_id!r}")
        raise KeyError(
            f"run id prefix {run_id!r} is ambiguous: "
            + ", ".join(matches[:5])
        )

    def load(self, run_id: str) -> LedgerRecord:
        """Load one record by exact id or unambiguous prefix."""
        path = self.records_dir / f"{self.resolve(run_id)}.json"
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not valid JSON: {error}") from error
        try:
            return LedgerRecord.from_dict(data)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error

    def records(self) -> Iterator[LedgerRecord]:
        """Every record, oldest first."""
        for run_id in self.run_ids():
            yield self.load(run_id)

    # ------------------------------------------------------------------
    # Blobs
    # ------------------------------------------------------------------
    def put_blob(self, content: bytes) -> str:
        """Store ``content`` once, by digest; returns the digest."""
        digest = hashlib.sha256(content).hexdigest()
        path = self._blob_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(content)
            tmp.replace(path)
        return digest

    def _blob_path(self, digest: str) -> Path:
        return self.blobs_dir / digest[:2] / digest

    def has_blob(self, digest: str) -> bool:
        return self._blob_path(digest).is_file()

    def open_blob(self, digest: str) -> bytes:
        """The stored bytes for ``digest`` (verified against the name)."""
        content = self._blob_path(digest).read_bytes()
        actual = hashlib.sha256(content).hexdigest()
        if actual != digest:
            raise ValueError(
                f"blob {digest} is corrupt (content hashes to {actual})"
            )
        return content

    def blob_digests(self) -> List[str]:
        """Every stored blob digest (sorted)."""
        if not self.blobs_dir.is_dir():
            return []
        return sorted(
            path.name
            for path in self.blobs_dir.glob("*/*")
            if path.is_file()
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        keep: Optional[int] = None,
        before: str = "",
        dry_run: bool = False,
    ) -> GcReport:
        """Retention sweep: drop old records, then unreferenced blobs.

        ``keep`` retains only the newest N records; ``before`` (an
        ISO-8601 UTC timestamp) drops records created strictly earlier.
        Both default to "retain everything", in which case only orphan
        blobs (from records removed by earlier sweeps or by hand) are
        collected.  ``dry_run`` reports without deleting.
        """
        ids = self.run_ids()
        doomed = set()
        if before:
            for run_id in ids:
                if self.load(run_id).created < before:
                    doomed.add(run_id)
        if keep is not None and keep >= 0:
            survivors = [i for i in ids if i not in doomed]
            doomed.update(survivors[: max(len(survivors) - keep, 0)])

        referenced = set()
        for run_id in ids:
            if run_id in doomed:
                continue
            referenced.update(
                ref.digest for ref in self.load(run_id).artifacts
            )
        orphans = [d for d in self.blob_digests() if d not in referenced]

        report = GcReport(
            kept_records=len(ids) - len(doomed),
            removed_records=sorted(doomed),
            removed_blobs=orphans,
            dry_run=dry_run,
        )
        if not dry_run:
            for run_id in report.removed_records:
                (self.records_dir / f"{run_id}.json").unlink()
            for digest in orphans:
                self._blob_path(digest).unlink()
        return report


def save_slice(
    records: Iterable[LedgerRecord], path: Union[str, Path]
) -> Path:
    """Write ``records`` as a JSON-lines slice; returns the path."""
    path = Path(path)
    path.write_text(
        "".join(record.to_json_line() + "\n" for record in records)
    )
    # Route the slice through the ledger's content-addressed store
    # when a recording session is active (no-op otherwise).
    from .session import notify_artifact

    notify_artifact("bench-slice", path)
    return path


def load_slice(path: Union[str, Path]) -> List[LedgerRecord]:
    """Load and validate a JSON-lines slice (at least one record)."""
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{number} is not valid JSON: {error}"
            ) from error
        try:
            records.append(LedgerRecord.from_dict(data))
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path}:{number}: {error}") from error
    if not records:
        raise ValueError(f"{path} holds no records")
    return records
