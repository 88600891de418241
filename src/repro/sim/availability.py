"""Exact per-iteration availability under random crashes.

The paper motivates fault tolerance qualitatively ("the loss of one
computing site must not lead to the loss of the whole application",
Section 1.2); this module quantifies it.  In one iteration every
processor crashes independently with probability ``p``, at a date
uniform over the failure-free response ``H``.  The availability is the
probability that the iteration still delivers all its outputs.

It is a finite sum, not an estimate.  The prover's region sweep
(:func:`repro.lint.proof.verifier.sweep_regions`) cuts the crash-date
cube of each crash subset ``S`` into leaf cells, each with one
deterministic verdict, so

    A = Σ_S p^|S| (1−p)^(n−|S|) · vol(delivering cells ∩ [0,H]^S) / H^|S|

over every subset of every size (a cell's volume is
``Π max(0, min(hi, H) − lo)``).  No superset of a dead-from-start
subset is pruned: a crash after an operation has produced and sent its
data still delivers.

The sweep covers subsets beyond ``K``, where the number of leaves
grows fastest: the paper's 3-processor examples take a few hundred to
about 1,500 runs, a 10-operation K=2 schedule on 4 processors about
93k runs (seconds).  Larger architectures are out of reach.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

from ..core.schedule import Schedule
from ..obs import get_instrumentation
from .runner import simulate

__all__ = ["Availability", "exact_availability"]

LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class Availability:
    """The exact availability of a schedule at one crash probability."""

    crash_probability: float
    #: Probability that an iteration delivers all its outputs.
    availability: float
    #: Number of processors that may crash.
    processors: int
    #: Leaves swept (one protocol run each): an exact work count.
    runs: int

    @property
    def conditional_survival(self) -> float:
        """Survival probability *given* at least one crash happened."""
        crash_free = (1.0 - self.crash_probability) ** self.processors
        if crash_free == 1.0:
            return 1.0
        return (self.availability - crash_free) / (1.0 - crash_free)

    def __str__(self) -> str:
        return (
            f"availability {100 * self.availability:.2f}% "
            f"(exact, p={self.crash_probability}, {self.runs} runs); "
            f"survival given >=1 crash: "
            f"{100 * self.conditional_survival:.2f}%"
        )


def exact_availability(schedule: Schedule, crash_probability: float) -> Availability:
    """The exact per-iteration availability of ``schedule`` when every
    processor crashes with ``crash_probability`` at a date uniform over
    the failure-free response."""
    if not 0.0 <= crash_probability <= 1.0:
        raise ValueError("crash probability must be in [0, 1]")
    # Imported here: the prover builds on repro.sim's engine and protocol.
    from ..lint.proof.automaton import compile_automaton
    from ..lint.proof.verifier import sweep_regions

    p = crash_probability
    auto = compile_automaton(schedule)
    procs = auto.processors
    n = len(procs)
    horizon = max(simulate(schedule).response_time, 1e-9)
    availability, runs = 0.0, 0
    with get_instrumentation().span("sim.availability", p=p):
        for size in range(n + 1):
            weight = p**size * (1.0 - p) ** (n - size)
            if weight == 0.0:
                continue
            for subset in itertools.combinations(procs, size):
                delivering = 0.0
                for cell, run in sweep_regions(auto, subset, math.inf):
                    runs += 1
                    if not run.missing_outputs:
                        delivering += math.prod(
                            max(0.0, min(hi, horizon) - lo) / horizon
                            for lo, hi in cell
                        )
                availability += weight * delivering
    result = Availability(p, availability, n, runs)
    LOGGER.info("availability: %s", result)
    return result
