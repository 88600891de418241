"""The host's speed while a pass runs, for host-normalised pass times.

On a shared host the speed of a core drifts by tens of percent over
minutes, so raw wall times of the same work spread too widely to
gate on.  While a pass runs, a 20 ms interval timer interrupts it
and times a fixed pure-Python loop (about 0.2 ms, so about 1% of the
pass).  The loop runs none of the program's code; its median time over
the pass is the host's speed during that pass.  A pass's wall time
divided by ``slowdown()`` reads in seconds at the nominal speed.

The timer signal is ``SIGALRM``: POSIX only, and only in the main
thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Time of one probe loop at the nominal speed (about this host's
#: typical speed, so normalised times read close to raw ones).
NOMINAL_PROBE_S = 200e-6

INTERVAL_S = 0.02


def probe_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager sampling the probe loop's time while it is open."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Median probe time over the nominal one (> 1: a slow host)."""
        if not self.samples:
            raise RuntimeError("no speed sample taken: the probed span is too short")
        return statistics.median(self.samples) / NOMINAL_PROBE_S
