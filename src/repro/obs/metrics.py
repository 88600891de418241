"""A zero-dependency metrics registry: counters, gauges, histograms, timers.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): everything the schedulers and the simulation
executive want to count or time lands here under a dotted metric name
(``pressure.evals``, ``sim.frames_sent``, ...), and the CLI renders
the whole registry as a table, JSON, or CSV after a run.

Design constraints, in order:

* **stdlib only** — no prometheus_client, no numpy; quantiles are
  computed by sorting the recorded samples;
* **thread-safe** — one ``RLock`` per registry; instruments mutate
  under it, so a library caller that instruments work on several
  threads gets exact counts (the package itself is single-threaded);
* **two lifetimes** — a process-wide singleton (:func:`registry`) for
  casual use, and isolated instances (``MetricsRegistry()``) so tests
  and nested profiling sessions never bleed into each other.
"""

from __future__ import annotations

import io
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "registry",
    "reset_registry",
]


class Counter:
    """A monotonically increasing count (events, items, calls)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (depth, load)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """A sample distribution with exact quantiles.

    Samples are kept verbatim (the workloads here record thousands of
    observations, not millions), so :meth:`quantile` is exact —
    interpolated linearly between order statistics.  The sorted view
    is cached and invalidated on :meth:`observe`, so the common
    read pattern (a snapshot asks for min/p50/p90/p99/max back to
    back) sorts once, not once per quantile.
    """

    __slots__ = ("name", "_samples", "_sorted", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))
            self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._samples else 0.0

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) by linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            data = self._sorted
        if not data:
            return 0.0
        position = q * (len(data) - 1)
        lower = int(position)
        upper = min(lower + 1, len(data) - 1)
        fraction = position - lower
        return data[lower] * (1 - fraction) + data[upper] * fraction

    def snapshot(self) -> Dict[str, float]:
        """The digest the emitters show: count, sum, mean, quantiles."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min,
                "p50": self.quantile(0.5),
                "p90": self.quantile(0.9),
                "p99": self.quantile(0.99),
                "max": self.max,
            }


class Timer:
    """Context manager observing elapsed wall-clock seconds.

    Built on :func:`time.perf_counter` and backed by a
    :class:`Histogram`, so quantiles of the timed section come for
    free.  Re-entrant use creates independent measurements.
    """

    __slots__ = ("histogram", "_clock", "_start")

    def __init__(
        self,
        histogram: Histogram,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.histogram.observe(self._clock() - self._start)


class MetricsRegistry:
    """A named collection of instruments.

    Instruments are created on first use (``registry.counter("x")``)
    and live for the registry's lifetime; names are flat dotted
    strings, one namespace shared by all instrument kinds (a name may
    be used by only one kind).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def _claim(self, name: str, kind: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise ValueError(
                    f"metric name {name!r} already used by another kind"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._claim(name, self._counters)
                instrument = Counter(name, self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._claim(name, self._gauges)
                instrument = Gauge(name, self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._claim(name, self._histograms)
                instrument = Histogram(name, self._lock)
                self._histograms[name] = instrument
            return instrument

    def timer(self, name: str) -> Timer:
        """A fresh timing context observing into histogram ``name``."""
        return Timer(self.histogram(name))

    # ------------------------------------------------------------------
    # Shorthand mutators
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """The current value of counter ``name`` (0 if never touched)."""
        with self._lock:
            instrument = self._counters.get(name)
            return instrument.value if instrument else 0.0

    def to_dict(self) -> Dict[str, Dict]:
        """Everything, as plain JSON-ready dictionaries."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def to_csv(self) -> str:
        """Flat ``kind,name,field,value`` rows for spreadsheet import."""
        out = io.StringIO()
        out.write("kind,name,field,value\n")
        data = self.to_dict()
        for name, value in data["counters"].items():
            out.write(f"counter,{name},value,{value:g}\n")
        for name, value in data["gauges"].items():
            out.write(f"gauge,{name},value,{value:g}\n")
        for name, digest in data["histograms"].items():
            for field, value in digest.items():
                out.write(f"histogram,{name},{field},{value:g}\n")
        return out.getvalue()

    def render_table(self, title: str = "metrics") -> str:
        """A fixed-width text table for terminal reports."""
        data = self.to_dict()
        lines = [title, "-" * len(title)]
        width = max(
            [len(name) for family in data.values() for name in family] or [4]
        )
        for name, value in data["counters"].items():
            lines.append(f"{name:<{width}}  {value:>12g}  (counter)")
        for name, value in data["gauges"].items():
            lines.append(f"{name:<{width}}  {value:>12g}  (gauge)")
        for name, digest in data["histograms"].items():
            lines.append(
                f"{name:<{width}}  {digest['sum']:>12.6g}  (histogram: "
                f"n={digest['count']} mean={digest['mean']:.3g} "
                f"p90={digest['p90']:.3g} max={digest['max']:.3g})"
            )
        if len(lines) == 2:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (mostly for tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# The process-wide singleton
# ----------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def reset_registry() -> None:
    """Discard the process-wide registry's instruments."""
    registry().reset()
