"""Problem lints (FT1xx): diagnose a specification before scheduling.

These rules answer, statically and before any heuristic runs, the
feasibility questions of the paper's Section 5.5/5.6: is the algorithm
graph well formed, does the architecture carry enough redundancy for
the requested ``K``, and is the real-time constraint achievable at
all?  Goemans/Lynch/Saias-style fault-withstanding bounds are
checkable offline — a problem that fails these rules cannot yield a
correct fault-tolerant schedule no matter which heuristic runs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, Tuple

from ..graphs.problem import Problem
from .model import Diagnostic, Severity
from .registry import Scope, rule

__all__ = []  # rules register themselves; nothing to import directly

Finding = Tuple[str, str]  # (message, subject)

#: Failure-pattern enumeration cap for the survivability rule; above
#: this the rule degrades to the articulation-point approximation.
MAX_SURVIVABILITY_PATTERNS = 20_000


@rule(
    "FT101",
    "algorithm-cycle",
    Severity.ERROR,
    Scope.PROBLEM,
    "the algorithm data-flow graph must be acyclic",
)
def check_algorithm_cycle(problem: Problem) -> Iterator[Finding]:
    cycle = problem.algorithm.find_cycle()
    if cycle:
        arcs = ", ".join(f"{u}->{v}" for u, v in cycle)
        yield (
            f"algorithm graph has a cycle: {arcs} (the intra-iteration "
            f"data-flow must be a DAG; inter-iteration feedback belongs "
            f"in a MEM operation's initial value)",
            arcs,
        )


@rule(
    "FT102",
    "dangling-dependency",
    Severity.ERROR,
    Scope.PROBLEM,
    "every dependency must join two known, distinct operations, once",
)
def check_dangling_dependency(problem: Problem) -> Iterator[Finding]:
    algorithm = problem.algorithm
    if not algorithm.operation_names:
        yield ("algorithm graph has no operation", "")
        return
    known = set(algorithm.operation_names)
    records = []
    for src, dst, record in algorithm.arcs():
        for end in (src, dst):
            if end not in known:
                yield (
                    f"dependency {src}->{dst} references unknown "
                    f"operation {end!r}",
                    f"{src}->{dst}",
                )
        if src == dst:
            yield (f"self-dependency {src}->{dst}", f"{src}->{dst}")
        if record is None:
            yield (
                f"edge {src}->{dst} carries no dependency record",
                f"{src}->{dst}",
            )
            continue
        records.append(record.key)
        if record.key != (src, dst):
            yield (
                f"edge {src}->{dst} carries the dependency record of {record}",
                f"{src}->{dst}",
            )
    duplicated = [key for key, count in Counter(records).items() if count > 1]
    for src, dst in duplicated:
        yield (f"dependency {src}->{dst} is declared twice", f"{src}->{dst}")


@rule(
    "FT103",
    "under-replicable",
    Severity.ERROR,
    Scope.PROBLEM,
    "every operation needs at least K + 1 capable processors",
)
def check_under_replicable(problem: Problem) -> Iterator[Finding]:
    need = problem.replication_degree
    for op in problem.algorithm.operation_names:
        capable = problem.allowed_processors(op)
        if len(capable) < need:
            yield (
                f"operation {op!r} can run on {len(capable)} processor(s) "
                f"({', '.join(capable) or 'none'}) but K="
                f"{problem.failures} requires {need} — a single pattern "
                f"of {problem.failures} failure(s) can wipe out every "
                f"replica",
                op,
            )


@rule(
    "FT104",
    "not-survivable",
    Severity.ERROR,
    Scope.PROBLEM,
    "no K-failure pattern may disconnect the survivors or kill every "
    "capable host of an operation",
)
def check_survivability(problem: Problem) -> Iterator[Finding]:
    """Exhaustive (K+1)-survivability of the architecture.

    For every failure pattern of size <= K the surviving processors
    must still form a connected network (otherwise some data flow has
    no route) and every operation must keep at least one capable
    surviving host.  The operation-host half subsumes FT103, but the
    connectivity half is a genuinely architectural property FT103
    cannot see (e.g. a star topology whose hub dies).
    """
    arch = problem.architecture
    procs = arch.processor_names
    if len(procs) <= problem.failures:
        yield (
            f"only {len(procs)} processor(s) for K={problem.failures} "
            f"failures (need at least K + 1)",
            "",
        )
        return
    capable = {
        op: set(problem.allowed_processors(op))
        for op in problem.algorithm.operation_names
    }
    patterns = 0
    for size in range(1, problem.failures + 1):
        for failed in itertools.combinations(procs, size):
            patterns += 1
            if patterns > MAX_SURVIVABILITY_PATTERNS:
                yield Diagnostic(
                    "FT104",
                    f"survivability enumeration truncated after "
                    f"{MAX_SURVIVABILITY_PATTERNS} patterns; falling back "
                    f"to the articulation-point approximation",
                    Severity.WARNING,
                )
                for cut in arch.cut_processors():
                    yield (
                        f"processor {cut!r} is an articulation point: its "
                        f"failure partitions the network",
                        cut,
                    )
                return
            dead = set(failed)
            label = "{" + ",".join(sorted(dead)) + "}"
            if not arch.connectivity_after_failures(dead):
                yield (
                    f"failure pattern {label} disconnects the surviving "
                    f"architecture: some surviving data flow has no route",
                    label,
                )
            for op, hosts in capable.items():
                if hosts and hosts <= dead:
                    yield (
                        f"failure pattern {label} kills every capable "
                        f"host of operation {op!r}",
                        label,
                    )


@rule(
    "FT105",
    "deadline-below-bound",
    Severity.ERROR,
    Scope.PROBLEM,
    "the deadline must be at least the makespan lower bound",
)
def check_deadline_bound(problem: Problem) -> Iterator[Finding]:
    if problem.deadline is None:
        return
    if not problem.algorithm.is_valid():
        return  # FT101/FT102 already fired; the bound needs a DAG
    from ..analysis.bounds import makespan_lower_bound
    from ..tolerance import approx_le

    try:
        bound = makespan_lower_bound(
            problem, replicated=problem.failures > 0
        )
    except Exception:
        return  # incomplete tables: FT103/FT106 report the real cause
    if not approx_le(bound, problem.deadline):
        yield (
            f"deadline {problem.deadline:g} is below the makespan lower "
            f"bound {bound:g}: no schedule (any heuristic, any tie-break) "
            f"can meet it",
            f"deadline={problem.deadline:g}",
        )


@rule(
    "FT106",
    "incomplete-comm-table",
    Severity.ERROR,
    Scope.PROBLEM,
    "every dependency needs a transfer duration on every link",
)
def check_comm_table(problem: Problem) -> Iterator[Finding]:
    comm = problem.communication
    for dep in problem.algorithm.dependencies:
        missing = [
            link
            for link in problem.architecture.link_names
            if not comm.has_duration(dep.key, link)
        ]
        if missing:
            yield (
                f"dependency {dep} has no transfer duration on link(s) "
                f"{', '.join(missing)} — static multi-hop routing may "
                f"carry any dependency over any link",
                str(dep),
            )


@rule(
    "FT107",
    "idle-processor",
    Severity.WARNING,
    Scope.PROBLEM,
    "a processor no operation can execute is dead weight",
)
def check_idle_processor(problem: Problem) -> Iterator[Finding]:
    for proc in problem.architecture.processor_names:
        if not any(
            problem.execution.can_execute(op, proc)
            for op in problem.algorithm.operation_names
        ):
            yield (
                f"processor {proc!r} cannot execute any operation: it "
                f"contributes nothing but relay capacity",
                proc,
            )


@rule(
    "FT108",
    "bus-single-point",
    Severity.INFO,
    Scope.PROBLEM,
    "a single bus tolerates no link failure (paper Sections 5.5, 8)",
)
def check_bus_single_point(problem: Problem) -> Iterator[Finding]:
    if problem.failures >= 1 and problem.architecture.is_single_bus:
        yield (
            "the architecture is a single bus: processor failures are "
            "tolerated, but the medium itself is a single point of "
            "failure for the link-failure class — the paper points at "
            "intrinsically redundant media (e.g. CAN) for that class",
            "bus",
        )
