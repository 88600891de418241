"""The scheduling problem bundle and its feasibility analysis.

A :class:`Problem` groups the four inputs of the paper's *specific
problem* (Section 5.6):

* an algorithm graph,
* an architecture graph,
* the distribution constraints (execution + communication tables),
* the number ``K`` of permanent fail-stop processor failures to
  tolerate (``K = 0`` for the plain SynDEx baseline),
* optionally a real-time constraint: a deadline on the iteration's
  response time.

Feasibility (Section 5.5, item 1): fault-tolerance is achievable only
when the architecture has enough redundancy — every operation must be
executable on at least ``K + 1`` distinct processors, and the network
must stay connected.  :meth:`Problem.check` reports the precise
violation instead of letting a heuristic fail obscurely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .algorithm import AlgorithmGraph
from .architecture import Architecture
from .constraints import CommunicationTable, ConstraintError, ExecutionTable
from .routing import RoutingTable

__all__ = ["Problem", "InfeasibleProblemError"]


class InfeasibleProblemError(ValueError):
    """Raised when a problem cannot possibly be scheduled as requested."""


@dataclass
class Problem:
    """A complete scheduling problem instance.

    Attributes
    ----------
    algorithm:
        The data-flow graph to distribute.
    architecture:
        The target multiprocessor network.
    execution:
        Worst-case execution durations (operation x processor).
    communication:
        Worst-case transfer durations (dependency x link).
    failures:
        ``K``, the number of permanent fail-stop processor failures the
        produced schedule must tolerate.
    deadline:
        Optional real-time constraint on the iteration response time
        (the schedule makespan); ``None`` means "minimize only".
    name:
        Free-form identifier used in reports.
    """

    algorithm: AlgorithmGraph
    architecture: Architecture
    execution: ExecutionTable
    communication: CommunicationTable
    failures: int = 0
    deadline: Optional[float] = None
    name: str = "problem"

    def __post_init__(self) -> None:
        if self.failures < 0:
            raise InfeasibleProblemError("failures (K) must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise InfeasibleProblemError("deadline must be positive")
        self._routing: Optional[RoutingTable] = None
        self._largest_frames: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    @property
    def routing(self) -> RoutingTable:
        """The static routing table (computed lazily, then cached)."""
        if self._routing is None:
            self._routing = RoutingTable(self.architecture)
        return self._routing

    @property
    def replication_degree(self) -> int:
        """``K + 1``: how many replicas each operation needs."""
        return self.failures + 1

    def largest_frame(self, link: str) -> float:
        """Duration of the largest frame any dependency puts on ``link``
        (0.0 when no dependency of the algorithm has a duration there).

        A static quantity (algorithm and communication table are fixed
        for a problem): the timeout ladders query it once per traversed
        link per watched message, so it is computed for every link at
        the first query, in one pass over the table.
        """
        if self._largest_frames is None:
            deps = {dep.key for dep in self.algorithm.dependencies}
            largest: Dict[str, float] = {}
            for (dep, table_link), duration in self.communication.entries.items():
                if dep not in deps:
                    continue
                known = largest.get(table_link)
                if known is None or duration > known:
                    largest[table_link] = duration
            self._largest_frames = largest
        return self._largest_frames.get(link, 0.0)

    def allowed_processors(self, op: str) -> List[str]:
        """Processors able to execute ``op``, in architecture order."""
        return self.execution.allowed_processors(
            op, self.architecture.processor_names
        )

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate the whole problem; raise with a precise diagnosis.

        Checks performed:

        1. both graphs are individually valid;
        2. the constraint tables are complete;
        3. every operation has >= K + 1 capable processors (otherwise
           a single pattern of K failures can wipe out all replicas);
        4. the architecture has more than K processors at all;
        5. when K > 0, the network must remain connected after any K
           processor failures is *not* required globally (a schedule
           may still deliver all outputs through surviving replicas),
           but a totally disconnectable network is flagged for K = 0
           problems via the base connectivity check.
        """
        self.algorithm.check()
        self.architecture.check()
        self.execution.check_complete(self.algorithm, self.architecture)
        self.communication.check_complete(self.algorithm, self.architecture)

        n_procs = len(self.architecture)
        if n_procs <= self.failures:
            raise InfeasibleProblemError(
                f"cannot tolerate K={self.failures} failures with only "
                f"{n_procs} processors (need at least K + 1)"
            )
        for op in self.algorithm.operation_names:
            capable = self.allowed_processors(op)
            if len(capable) < self.replication_degree:
                raise InfeasibleProblemError(
                    f"operation {op!r} can run on {len(capable)} "
                    f"processor(s) ({', '.join(capable) or 'none'}) but "
                    f"K={self.failures} requires {self.replication_degree}"
                )

    def is_feasible(self) -> bool:
        """True when :meth:`check` passes."""
        try:
            self.check()
        except (InfeasibleProblemError, ConstraintError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def without_fault_tolerance(self) -> "Problem":
        """The same problem with K = 0 (for baseline comparisons)."""
        return self.with_failures(0)

    def with_failures(self, failures: int) -> "Problem":
        """A copy of this problem targeting a different ``K``."""
        return Problem(
            algorithm=self.algorithm,
            architecture=self.architecture,
            execution=self.execution,
            communication=self.communication,
            failures=failures,
            deadline=self.deadline,
            name=f"{self.name}[K={failures}]",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A plain-dict description used by reports and the CLI."""
        return {
            "name": self.name,
            "operations": len(self.algorithm),
            "dependencies": len(self.algorithm.dependencies),
            "processors": len(self.architecture),
            "links": len(self.architecture.links),
            "single_bus": self.architecture.is_single_bus,
            "failures_tolerated": self.failures,
            "deadline": self.deadline,
        }

    def __repr__(self) -> str:
        return (
            f"Problem({self.name!r}, ops={len(self.algorithm)}, "
            f"procs={len(self.architecture)}, K={self.failures})"
        )
