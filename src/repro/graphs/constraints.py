"""Distribution constraints: the characteristics lookup tables (Section 4.1).

AAA takes, besides the two graphs, *distribution constraints*:

* an **execution table** assigning to each (operation, processor) pair
  the worst-case execution duration of the operation on that processor,
  in time units — the value ``∞`` meaning "this operation cannot run on
  this processor" (which is how extios get pinned to the processors
  controlling their device);
* a **communication table** assigning to each (data-dependency, link)
  pair the worst-case transmission duration of the dependency's data
  over that link.

Both tables are explicit, dense inputs in the paper's examples; this
module also supports defaulted construction (uniform durations) for
generated workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .algorithm import AlgorithmGraph, Dependency
from .architecture import Architecture

__all__ = ["INFINITY", "ConstraintError", "ExecutionTable", "CommunicationTable"]

#: The "cannot execute here" marker of the paper's tables.
INFINITY = math.inf

DependencyKey = Tuple[str, str]


class ConstraintError(ValueError):
    """Raised when a constraints table is malformed or incomplete."""


def _as_dependency_key(dep: Union[Dependency, DependencyKey]) -> DependencyKey:
    if isinstance(dep, Dependency):
        return dep.key
    src, dst = dep
    return (src, dst)


@dataclass
class ExecutionTable:
    """Worst-case execution durations per (operation, processor).

    Entries default to ``INFINITY`` (not executable); use
    :meth:`set_duration` or the ``entries`` mapping at construction to
    populate.  ``durations[op][proc]`` style nested mappings are
    accepted by :meth:`from_rows`.
    """

    entries: Dict[Tuple[str, str], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Mapping[str, Mapping[str, float]]) -> "ExecutionTable":
        """Build from ``{operation: {processor: duration}}`` rows.

        This matches the layout of the paper's tables (one row per
        operation, one column per processor).
        """
        table = cls()
        for op, cols in rows.items():
            for proc, duration in cols.items():
                table.set_duration(op, proc, duration)
        return table

    @classmethod
    def uniform(
        cls,
        operations: Iterable[str],
        processors: Iterable[str],
        duration: float = 1.0,
    ) -> "ExecutionTable":
        """Every operation runs on every processor in ``duration``."""
        table = cls()
        procs = list(processors)
        for op in operations:
            for proc in procs:
                table.set_duration(op, proc, duration)
        return table

    def set_duration(self, op: str, proc: str, duration: float) -> None:
        """Record that ``op`` takes ``duration`` time units on ``proc``."""
        self.entries[(op, proc)] = self.checked(op, proc, duration)

    @staticmethod
    def checked(op: str, proc: str, duration: float) -> float:
        """``duration`` as a table value: a float, positive or
        ``INFINITY``; :class:`ConstraintError` otherwise."""
        if duration != INFINITY and (not math.isfinite(duration) or duration <= 0):
            raise ConstraintError(
                f"duration of {op!r} on {proc!r} must be positive or "
                f"INFINITY, got {duration!r}"
            )
        return float(duration)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def duration(self, op: str, proc: str) -> float:
        """Duration of ``op`` on ``proc`` (``INFINITY`` when impossible)."""
        return self.entries.get((op, proc), INFINITY)

    def can_execute(self, op: str, proc: str) -> bool:
        """True when ``op`` may run on ``proc``."""
        return math.isfinite(self.duration(op, proc))

    def allowed_processors(self, op: str, processors: Iterable[str]) -> List[str]:
        """The subset of ``processors`` able to execute ``op``."""
        return [p for p in processors if self.can_execute(op, p)]

    def finite_durations(self, op: str, processors: Iterable[str]) -> List[float]:
        """All finite durations of ``op`` over ``processors``."""
        return [
            self.duration(op, p) for p in processors if self.can_execute(op, p)
        ]

    def estimate(
        self, op: str, processors: Iterable[str], mode: str = "average"
    ) -> float:
        """A processor-independent duration estimate for the pre-pass.

        ``mode`` is one of ``average`` (default), ``min``, ``max``; see
        DESIGN.md item 1 — the paper computes its critical path before
        any assignment exists, so a per-operation estimate is needed.
        """
        durations = self.finite_durations(op, processors)
        if not durations:
            raise ConstraintError(f"operation {op!r} cannot run anywhere")
        if mode == "average":
            return sum(durations) / len(durations)
        if mode == "min":
            return min(durations)
        if mode == "max":
            return max(durations)
        raise ConstraintError(f"unknown estimate mode {mode!r}")

    def check_complete(
        self, algorithm: AlgorithmGraph, architecture: Architecture
    ) -> None:
        """Every operation must be executable on at least one processor."""
        procs = architecture.processor_names
        entries = self.entries
        for op in algorithm.operation_names:
            if not any(
                math.isfinite(entries.get((op, proc), INFINITY)) for proc in procs
            ):
                raise ConstraintError(
                    f"operation {op!r} has no processor able to execute it"
                )

    def copy(self) -> "ExecutionTable":
        return ExecutionTable(dict(self.entries))


@dataclass
class CommunicationTable:
    """Worst-case transmission durations per (dependency, link)."""

    entries: Dict[Tuple[DependencyKey, str], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, rows: Mapping[str, Mapping[DependencyKey, float]]
    ) -> "CommunicationTable":
        """Build from ``{link: {(src, dst): duration}}`` rows."""
        table = cls()
        for link, cols in rows.items():
            for dep, duration in cols.items():
                table.set_duration(dep, link, duration)
        return table

    @classmethod
    def uniform_per_dependency(
        cls,
        durations: Mapping[DependencyKey, float],
        links: Iterable[str],
    ) -> "CommunicationTable":
        """Same duration for a dependency on every link.

        This matches the paper's examples, where "the time needed for
        communicating a given data-dependency is the same on both
        communication links" (Section 5.4).
        """
        table = cls()
        link_names = list(links)
        for dep, duration in durations.items():
            for link in link_names:
                table.set_duration(dep, link, duration)
        return table

    def set_duration(
        self, dep: Union[Dependency, DependencyKey], link: str, duration: float
    ) -> None:
        """Record the transmission time of ``dep`` over ``link``."""
        self.entries[(_as_dependency_key(dep), link)] = self.checked(
            dep, link, duration
        )

    @staticmethod
    def checked(
        dep: Union[Dependency, DependencyKey], link: str, duration: float
    ) -> float:
        """``duration`` as a table value: a finite, non-negative float;
        :class:`ConstraintError` otherwise."""
        if not math.isfinite(duration) or duration < 0:
            raise ConstraintError(
                f"communication duration of {dep} on {link!r} must be "
                f"finite and non-negative, got {duration!r}"
            )
        return float(duration)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def duration(self, dep: Union[Dependency, DependencyKey], link: str) -> float:
        """Transmission time of ``dep`` over ``link``."""
        key = (_as_dependency_key(dep), link)
        try:
            return self.entries[key]
        except KeyError:
            raise ConstraintError(
                f"no communication duration for {key[0][0]}->{key[0][1]} "
                f"on link {link!r}"
            ) from None

    def has_duration(self, dep: Union[Dependency, DependencyKey], link: str) -> bool:
        """True when a duration is recorded for ``dep`` on ``link``."""
        return (_as_dependency_key(dep), link) in self.entries

    def estimate(
        self,
        dep: Union[Dependency, DependencyKey],
        links: Iterable[str],
        mode: str = "average",
    ) -> float:
        """Link-independent estimate of the dependency's transfer time."""
        durations = [
            self.duration(dep, link)
            for link in links
            if self.has_duration(dep, link)
        ]
        if not durations:
            raise ConstraintError(f"dependency {dep} has no link duration")
        if mode == "average":
            return sum(durations) / len(durations)
        if mode == "min":
            return min(durations)
        if mode == "max":
            return max(durations)
        raise ConstraintError(f"unknown estimate mode {mode!r}")

    def check_complete(
        self, algorithm: AlgorithmGraph, architecture: Architecture
    ) -> None:
        """Every dependency must have a duration on every link.

        Static multi-hop routing may carry any dependency over any
        link, so the paper's tables are dense.
        """
        entries = self.entries
        links = architecture.link_names
        for dep in algorithm.dependencies:
            key = dep.key
            for link in links:
                if (key, link) not in entries:
                    raise ConstraintError(
                        f"dependency {dep} has no duration on link {link!r}"
                    )

    def copy(self) -> "CommunicationTable":
        return CommunicationTable(dict(self.entries))
