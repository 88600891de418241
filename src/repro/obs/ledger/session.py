"""The ambient ledger session: provenance capture with zero plumbing.

The CLI opens one :func:`ledger_session` around each invocation when
the ledger is enabled (``--ledger`` / ``REPRO_LEDGER``).  While the
session is active, code anywhere in the process can annotate the
eventual record without threading a handle through every call site:

* :func:`note_problem` / :func:`note_schedule` — canonical content
  hashes of what the run operated on and produced,
* :func:`note_metric` — comparator-ready quality/counter/timing
  :class:`~repro.obs.ledger.model.Metric` values,
* :func:`notify_artifact` — called by the proof/campaign/causal and
  bench-slice savers after writing a file; the session copies the
  bytes into the content-addressed blob store.

All four are cheap no-ops when no session is active, mirroring the
disabled-by-default discipline of :mod:`repro.obs.runtime`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..environment import environment_fingerprint, utc_now
from .model import ArtifactRef, LedgerRecord, Metric
from .store import LedgerStore, new_run_id

__all__ = [
    "LedgerSession",
    "current_session",
    "ledger_session",
    "note_metric",
    "note_problem",
    "note_schedule",
    "notify_artifact",
]

_SESSION: Optional["LedgerSession"] = None


class LedgerSession:
    """Accumulates one :class:`LedgerRecord` while a run executes."""

    def __init__(
        self,
        store: LedgerStore,
        command: str,
        argv: Optional[List[str]] = None,
        label: str = "",
    ) -> None:
        self.store = store
        self.record = LedgerRecord(
            run_id=new_run_id(),
            created=utc_now(),
            command=command,
            argv=list(argv or []),
            environment=environment_fingerprint(),
            label=label,
        )
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def note_problem(self, problem: Any) -> None:
        """Record the canonical hash of a problem the run touched."""
        from ...graphs.io import problem_hash

        digest = problem_hash(problem)
        if not self.record.problem_hash:
            self.record.problem_hash = digest
        if digest not in self.record.problem_hashes:
            self.record.problem_hashes.append(digest)

    def note_schedule(self, schedule: Any) -> None:
        """Record the canonical hash of a schedule the run produced."""
        from ...graphs.io import schedule_hash

        self.record.schedule_hash = schedule_hash(schedule)

    def note_metric(
        self,
        name: str,
        value: float,
        unit: str = "",
        direction: str = "lower",
        kind: str = "quality",
        noise: float = 0.0,
    ) -> None:
        """Record one comparator-ready metric."""
        self.record.metrics[name] = Metric(
            value, unit=unit, direction=direction, kind=kind, noise=noise
        )

    def add_artifact(self, kind: str, path: Union[str, Path]) -> None:
        """Copy an artifact's bytes into the blob store, dedup by digest."""
        source = Path(path)
        try:
            content = source.read_bytes()
        except OSError:
            return
        digest = self.store.put_blob(content)
        ref = ArtifactRef(
            kind=kind, name=source.name, digest=digest, size=len(content)
        )
        if ref not in self.record.artifacts:
            self.record.artifacts.append(ref)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(
        self, exit_code: int, obs: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Seal the record (exit code, wall clock, obs snapshot); append."""
        self.record.exit_code = int(exit_code)
        self.record.wall_s = time.perf_counter() - self._started
        if obs is not None:
            self.record.obs = dict(obs)
        return self.store.append(self.record)


def current_session() -> Optional[LedgerSession]:
    """The active session, or ``None`` when the ledger is off."""
    return _SESSION


@contextmanager
def ledger_session(
    store: LedgerStore,
    command: str,
    argv: Optional[List[str]] = None,
    label: str = "",
) -> Iterator[LedgerSession]:
    """Activate a session for the duration of one run (not reentrant:
    an inner activation would silently hijack the outer record, so it
    raises instead)."""
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("a ledger session is already active")
    session = LedgerSession(store, command, argv=argv, label=label)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None


# ----------------------------------------------------------------------
# Ambient annotation hooks (no-ops when no session is active)
# ----------------------------------------------------------------------
def note_problem(problem: Any) -> None:
    """Hash a problem into the active record, if any."""
    if _SESSION is not None:
        _SESSION.note_problem(problem)


def note_schedule(schedule: Any) -> None:
    """Hash a schedule into the active record, if any."""
    if _SESSION is not None:
        _SESSION.note_schedule(schedule)


def note_metric(
    name: str,
    value: float,
    unit: str = "",
    direction: str = "lower",
    kind: str = "quality",
    noise: float = 0.0,
) -> None:
    """Record a metric on the active record, if any."""
    if _SESSION is not None:
        _SESSION.note_metric(
            name, value, unit=unit, direction=direction, kind=kind,
            noise=noise,
        )


def notify_artifact(kind: str, path: Union[str, Path]) -> None:
    """Ingest a just-written artifact into the active record, if any.

    Artifact writers (:func:`repro.lint.proof.model.save_proof`,
    the campaign/causal savers, :func:`~repro.obs.ledger.store.save_slice`)
    call this unconditionally; the cost
    when the ledger is off is one ``None`` check.
    """
    if _SESSION is not None:
        _SESSION.add_artifact(kind, path)
