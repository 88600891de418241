"""Span tracing with Chrome trace-event export.

A *span* is one timed section of work with a dotted name and free-form
attributes (``span("pressure.eval", op="B", proc="P2")``).  Spans nest
naturally — the recorder keeps the nesting depth per thread — and the
whole recording exports as:

* **Chrome trace-event JSON** — an array of complete (``"ph": "X"``)
  events loadable in Perfetto / ``chrome://tracing``;
* **plain JSON / CSV summaries** — per-name aggregate timings for
  terminal reports and spreadsheets.

Overhead discipline: a disabled tracer hands out one shared no-op
context manager, so instrumented code pays a single attribute check
per ``span()`` call; an enabled tracer records into a bounded ring
buffer (old spans are dropped, never reallocated), so a long traced
session (a campaign, a full prover sweep) cannot exhaust memory.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN"]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: name, timing, attributes, position."""

    name: str
    start: float          #: seconds since the tracer epoch
    duration: float       #: seconds
    args: Tuple[Tuple[str, Any], ...] = ()
    thread: int = 0
    depth: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_chrome_event(self) -> Dict[str, Any]:
        """A complete-duration (``ph: X``) trace event, in microseconds."""
        return {
            "name": self.name,
            "ph": "X",
            "ts": round(self.start * 1e6, 3),
            "dur": round(self.duration * 1e6, 3),
            "pid": 1,
            "tid": self.thread,
            "args": dict(self.args),
        }


class _NullSpan:
    """The do-nothing context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: One shared instance: disabled tracing allocates nothing per call.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._tracer._enter()
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._tracer._clock()
        self._tracer._record(self._name, self._start, end, self._args)


class _ThreadDepth(threading.local):
    value = 0


class Tracer:
    """A span recorder with a bounded ring buffer.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns :data:`NULL_SPAN` and nothing
        is recorded; flipping :attr:`enabled` at runtime is allowed.
    capacity:
        Ring-buffer size; the oldest spans are evicted beyond it (the
        eviction count is reported in :meth:`summary`).
    clock:
        Injectable time source (tests); defaults to
        :func:`time.perf_counter`.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: int = 65536,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._epoch = clock()
        self._buffer: Deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._depth = _ThreadDepth()
        self.started = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **args: Any):
        """A context manager timing one section; nestable."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args)

    def _enter(self) -> None:
        self._depth.value += 1

    def _record(
        self, name: str, start: float, end: float, args: Dict[str, Any]
    ) -> None:
        depth = self._depth.value
        self._depth.value = depth - 1
        record = SpanRecord(
            name=name,
            start=start - self._epoch,
            duration=end - start,
            args=tuple(sorted(args.items())),
            thread=threading.get_ident() & 0xFFFF,
            depth=depth - 1,
        )
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self.dropped += 1
            self._buffer.append(record)
            self.started += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[SpanRecord]:
        """The recorded spans, oldest first."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()
            self.started = 0
            self.dropped = 0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates: count, total/mean/max seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            agg = totals.setdefault(
                record.name, {"count": 0, "total": 0.0, "max": 0.0}
            )
            agg["count"] += 1
            agg["total"] += record.duration
            agg["max"] = max(agg["max"], record.duration)
        for agg in totals.values():
            agg["mean"] = agg["total"] / agg["count"]
        return dict(sorted(totals.items()))

    def render_summary(self, title: str = "spans") -> str:
        """Fixed-width text table of :meth:`summary`."""
        summary = self.summary()
        lines = [title, "-" * len(title)]
        if not summary:
            lines.append("(no spans recorded)")
            return "\n".join(lines)
        width = max(len(name) for name in summary)
        for name, agg in summary.items():
            lines.append(
                f"{name:<{width}}  n={agg['count']:<7g} "
                f"total={agg['total'] * 1e3:9.3f}ms "
                f"mean={agg['mean'] * 1e6:9.3f}us "
                f"max={agg['max'] * 1e6:9.3f}us"
            )
        if self.dropped:
            lines.append(
                f"(ring buffer full: {self.dropped} oldest span(s) dropped)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """The Chrome trace-event array (the JSON Array Format).

        Both ``chrome://tracing`` and Perfetto accept a bare array of
        events; every element here is a complete-duration event with
        ``name``/``ph``/``ts``/``dur`` in place.
        """
        return [record.to_chrome_event() for record in self.spans]

    def write_chrome_trace(self, path: str) -> int:
        """Write the trace-event array to ``path``; returns the count."""
        events = self.to_chrome_trace()
        with open(path, "w") as handle:
            json.dump(events, handle, indent=1)
            handle.write("\n")
        return len(events)

    def to_csv(self) -> str:
        """Raw spans as ``name,start,duration,depth,args`` rows."""
        lines = ["name,start_s,duration_s,depth,args"]
        for record in self.spans:
            args = ";".join(f"{k}={v}" for k, v in record.args)
            lines.append(
                f"{record.name},{record.start:.9f},{record.duration:.9f},"
                f"{record.depth},{args}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """One span per line as a self-describing JSON object.

        JSONL streams concatenate: a campaign can append each
        scenario's spans to one file and grep/parse it incrementally,
        which neither the Chrome array (one document) nor CSV (header
        row) allows.
        """
        lines = []
        for record in self.spans:
            lines.append(json.dumps({
                "name": record.name,
                "start_s": round(record.start, 9),
                "duration_s": round(record.duration, 9),
                "thread": record.thread,
                "depth": record.depth,
                "args": dict(record.args),
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def export_jsonl(self, path: str, append: bool = False) -> int:
        """Write (or with ``append=True``, extend) a JSONL span file.

        Returns the number of spans written.
        """
        payload = self.to_jsonl()
        with open(path, "a" if append else "w") as handle:
            handle.write(payload)
        return payload.count("\n")
