"""Failure scenarios: what goes wrong, and when (paper Section 5.1).

The paper's fault model is the *permanent fail-stop processor
failure*: a processor halts, loses its volatile state, and never acts
again; its communication units die with it (Section 5.5).  The
discussion of Section 6.1 (item 3) additionally considers
*intermittent fail-silent* behaviours on a bus — a processor silent
for a while that later resumes — which we model as an outage window.

A :class:`FailureScenario` bundles:

* the crash (or outage) of each affected processor, with the absolute
  in-iteration date at which it stops (``at=0`` models a processor
  dead before the iteration starts — the paper's "subsequent
  iteration" case);
* the set of failures already *known* at iteration start (the fail
  flags of Section 5.5 as they stand after earlier detections): a
  Solution-1 backup skips the timeout of a candidate it already knows
  dead, which is exactly why the paper's Figure 18(b) subsequent
  schedule is faster than the Figure 18(a) transient one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = ["Crash", "LinkCrash", "FailureScenario"]


@dataclass(frozen=True)
class Crash:
    """One processor's outage.

    ``at`` is the crash date (in-iteration, absolute).  ``until`` is
    ``inf`` for a permanent fail-stop crash; a finite value models the
    intermittent fail-silent behaviour of Section 6.1 item 3 (the
    processor produces nothing during ``[at, until)`` and works again
    after).
    """

    processor: str
    at: float = 0.0
    until: float = math.inf

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("crash date must be >= 0")
        if self.until <= self.at:
            raise ValueError("recovery must come after the crash")

    @property
    def is_permanent(self) -> bool:
        return math.isinf(self.until)

    def alive_at(self, time: float) -> bool:
        """True when the processor works at ``time``."""
        return time < self.at or time >= self.until

    def __str__(self) -> str:
        if self.is_permanent:
            return f"{self.processor} crashes at {self.at}"
        return f"{self.processor} silent during [{self.at}, {self.until})"


@dataclass(frozen=True)
class LinkCrash:
    """A communication link going silent.

    The paper explicitly *excludes* link failures from its fault model
    (Section 5.5) and lists tolerating them as ongoing work
    (Section 8).  This class exists for that extension: frames on a
    dead link are lost; senders do not detect it (no link-level
    acknowledgement is modeled, matching the paper's static-routing
    stance).
    """

    link: str
    at: float = 0.0
    until: float = math.inf

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("link crash date must be >= 0")
        if self.until <= self.at:
            raise ValueError("recovery must come after the crash")

    def alive_at(self, time: float) -> bool:
        return time < self.at or time >= self.until

    def __str__(self) -> str:
        if math.isinf(self.until):
            return f"link {self.link} fails at {self.at}"
        return f"link {self.link} silent during [{self.at}, {self.until})"


@dataclass(frozen=True)
class FailureScenario:
    """A complete description of one simulated iteration's failures."""

    crashes: Tuple[Crash, ...] = ()
    link_crashes: Tuple[LinkCrash, ...] = ()
    known_failed: FrozenSet[str] = frozenset()
    name: str = ""

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FailureScenario":
        """The failure-free iteration."""
        return cls(name="failure-free")

    @classmethod
    def crash(cls, processor: str, at: float) -> "FailureScenario":
        """A single crash at date ``at`` (the paper's transient case)."""
        return cls(
            crashes=(Crash(processor, at),),
            name=f"crash({processor}@{at})",
        )

    @classmethod
    def dead_from_start(
        cls, *processors: str, known: bool = False
    ) -> "FailureScenario":
        """Processors dead before the iteration begins.

        With ``known=True`` the fail flags are already set — the
        paper's *subsequent iteration* (Figure 18(b)): detections
        already happened, so no timeout is paid again.
        """
        crashes = tuple(Crash(p, 0.0) for p in processors)
        known_failed = frozenset(processors) if known else frozenset()
        suffix = "known" if known else "undetected"
        return cls(
            crashes=crashes,
            known_failed=known_failed,
            name=f"dead-from-start({','.join(processors)};{suffix})",
        )

    @classmethod
    def simultaneous(cls, processors: Iterable[str], at: float) -> "FailureScenario":
        """Several processors crash at the same date (Section 5.6,
        criterion 2: "the capability to support several failures
        within the same iteration")."""
        procs = tuple(processors)
        return cls(
            crashes=tuple(Crash(p, at) for p in procs),
            name=f"simultaneous({','.join(procs)}@{at})",
        )

    @classmethod
    def intermittent(
        cls, processor: str, at: float, until: float
    ) -> "FailureScenario":
        """A fail-silent outage window (Section 6.1, item 3)."""
        return cls(
            crashes=(Crash(processor, at, until),),
            name=f"intermittent({processor}@[{at},{until}))",
        )

    @classmethod
    def link_failure(cls, link: str, at: float = 0.0) -> "FailureScenario":
        """A permanent link failure (the Section 8 extension)."""
        return cls(
            link_crashes=(LinkCrash(link, at),),
            name=f"link-failure({link}@{at})",
        )

    @classmethod
    def random(
        cls,
        processors: Iterable[str],
        max_failures: int,
        seed: int,
        horizon: float = 20.0,
    ) -> "FailureScenario":
        """A seeded random crash pattern for stress tests.

        Picks 0..``max_failures`` distinct victims and independent
        crash dates in ``[0, horizon)``.  Deterministic per seed.
        """
        import random as _random

        rng = _random.Random(seed)
        pool = sorted(processors)
        count = rng.randint(0, min(max_failures, len(pool)))
        victims = rng.sample(pool, count)
        crashes = tuple(
            Crash(victim, round(rng.uniform(0.0, horizon), 3))
            for victim in sorted(victims)
        )
        return cls(crashes=crashes, name=f"random(seed={seed})")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def failed_processors(self) -> FrozenSet[str]:
        """Every processor affected by some crash."""
        return frozenset(crash.processor for crash in self.crashes)

    @cached_property
    def _crash_by_processor(self) -> Dict[str, Crash]:
        """``processor -> crash``, built on first use (the first crash
        listed for a processor wins).  Not a field: equality, hashing
        and :func:`dataclasses.replace` ignore it."""
        table: Dict[str, Crash] = {}
        for crash in self.crashes:
            table.setdefault(crash.processor, crash)
        return table

    def crash_of(self, processor: str) -> Optional[Crash]:
        """The crash affecting ``processor``, if any."""
        return self._crash_by_processor.get(processor)

    def alive_at(self, processor: str, time: float) -> bool:
        """True when ``processor`` works at ``time``."""
        crash = self._crash_by_processor.get(processor)
        return crash is None or crash.alive_at(time)

    def alive_through(self, processor: str, start: float, end: float) -> bool:
        """True when ``processor`` works over the whole ``[start, end]``.

        Used to decide whether an execution or a frame transmission
        completes: fail-stop processors abort whatever they were doing
        (Section 3.1, "fail stop processors").
        """
        crash = self._crash_by_processor.get(processor)
        if crash is None:
            return True
        return end < crash.at or start >= crash.until

    def link_crash_of(self, link: str) -> Optional[LinkCrash]:
        """The crash affecting ``link``, if any."""
        for crash in self.link_crashes:
            if crash.link == link:
                return crash
        return None

    def link_alive_through(self, link: str, start: float, end: float) -> bool:
        """True when ``link`` carries frames over the whole window."""
        crash = self.link_crash_of(link)
        if crash is None:
            return True
        return end < crash.at or start >= crash.until

    def with_known(self, *processors: str) -> "FailureScenario":
        """A copy with additional fail flags pre-set."""
        return replace(
            self, known_failed=self.known_failed.union(processors)
        )

    def check_against(
        self,
        processor_names: Iterable[str],
        link_names: Optional[Iterable[str]] = None,
    ) -> None:
        """Validate that all referenced processors (and links) exist."""
        known = set(processor_names)
        for crash in self.crashes:
            if crash.processor not in known:
                raise ValueError(f"unknown processor {crash.processor!r}")
        unknown_flags = self.known_failed - known
        if unknown_flags:
            raise ValueError(f"unknown processors in flags: {sorted(unknown_flags)}")
        if link_names is not None:
            links = set(link_names)
            for crash in self.link_crashes:
                if crash.link not in links:
                    raise ValueError(f"unknown link {crash.link!r}")

    def __str__(self) -> str:
        return self.name or ", ".join(str(c) for c in self.crashes) or "no failure"
