"""The benchmark scenario registry.

A *scenario* is one named, parameterized experiment — "schedule the
paper's first example with Solution 1", "exact availability at
p=0.1" — registered once and shared by every runner: the ``repro
bench`` CLI, the pytest-benchmark shim under ``benchmarks/``, and the
CI gate all execute the same definition, so the number a dashboard
tracks is the number the paper-table benchmark asserts.

Scenario functions take the active :class:`~repro.obs.Instrumentation`
first (the runner installs a fresh one per run, so obs counters such
as ``pressure.evals`` are per-scenario) plus their registered params,
and return a ``{name: Metric}`` dict::

    @scenario(
        "schedule.fig17.solution1",
        "Solution 1 on the paper's bus example",
        suites=("quick", "full"),
        failures=1,
    )
    def fig17(obs, failures):
        result = schedule_solution1(first_example_problem(failures))
        return {"makespan": Metric(result.makespan, direction="exact")}

Suites are plain tags; ``"quick"`` is the sub-minute set CI runs on
every push, ``"full"`` everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..ledger.model import Metric

__all__ = [
    "Scenario",
    "all_scenarios",
    "get_scenario",
    "scenario",
    "scenarios_for_suite",
    "suite_names",
]

ScenarioFn = Callable[..., Dict[str, Metric]]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    description: str
    fn: ScenarioFn
    suites: Tuple[str, ...] = ("full",)
    params: Mapping[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, Scenario] = {}


def scenario(
    name: str,
    description: str,
    suites: Tuple[str, ...] = ("full",),
    **params: Any,
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario function under ``name`` (decorator)."""

    def decorator(fn: ScenarioFn) -> ScenarioFn:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} registered twice")
        _REGISTRY[name] = Scenario(
            name=name,
            description=description,
            fn=fn,
            suites=tuple(suites),
            params=dict(params),
        )
        return fn

    return decorator


def _ensure_builtins() -> None:
    # Deferred so importing the registry never pays for (or cyclically
    # depends on) repro.core/repro.sim; the builtin module registers
    # itself on first query.
    from . import scenarios  # noqa: F401


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, name-ordered."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenarios_for_suite(suite: str) -> List[Scenario]:
    """The scenarios tagged with ``suite``, name-ordered."""
    return [s for s in all_scenarios() if suite in s.suites]


def suite_names() -> List[str]:
    """Every suite tag in use, sorted."""
    return sorted({tag for s in all_scenarios() for tag in s.suites})


def get_scenario(name: str) -> Scenario:
    """The scenario registered under ``name`` (KeyError lists known ones)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
