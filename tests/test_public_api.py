"""Hygiene tests on the public API surface.

A library is adoptable when its public names resolve, are documented,
and don't vanish silently.  These tests walk every ``__all__`` of the
package and enforce it.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = [
    "repro",
    "repro.graphs",
    "repro.graphs.algorithm",
    "repro.graphs.architecture",
    "repro.graphs.constraints",
    "repro.graphs.routing",
    "repro.graphs.problem",
    "repro.graphs.generators",
    "repro.graphs.io",
    "repro.graphs.text_format",
    "repro.graphs.statistics",
    "repro.core",
    "repro.core.pressure",
    "repro.core.schedule",
    "repro.core.timeline",
    "repro.core.evalcache",
    "repro.core.list_scheduler",
    "repro.core.syndex",
    "repro.core.solution1",
    "repro.core.solution2",
    "repro.core.insertion",
    "repro.core.timeouts",
    "repro.core.executive_plan",
    "repro.core.validate",
    "repro.core.degrade",
    "repro.core.exhaustive",
    "repro.tolerance",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.decisions",
    "repro.obs.runtime",
    "repro.obs.environment",
    "repro.obs.schema",
    "repro.obs.bench",
    "repro.obs.bench.registry",
    "repro.obs.bench.scenarios",
    "repro.obs.bench.runner",
    "repro.obs.campaign",
    "repro.obs.campaign.model",
    "repro.obs.campaign.space",
    "repro.obs.campaign.executor",
    "repro.obs.campaign.diagnose",
    "repro.obs.campaign.report",
    "repro.obs.ledger",
    "repro.obs.ledger.model",
    "repro.obs.ledger.store",
    "repro.obs.ledger.session",
    "repro.obs.ledger.query",
    "repro.obs.ledger.compare",
    "repro.obs.ledger.drift",
    "repro.obs.ledger.dashboard",
    "repro.obs.causal",
    "repro.obs.causal.graph",
    "repro.obs.causal.critical",
    "repro.obs.causal.diff",
    "repro.obs.causal.report",
    "repro.lint",
    "repro.lint.model",
    "repro.lint.registry",
    "repro.lint.engine",
    "repro.lint.problem_rules",
    "repro.lint.schedule_rules",
    "repro.lint.obs_rules",
    "repro.lint.emitters",
    "repro.lint.proof",
    "repro.lint.proof.automaton",
    "repro.lint.proof.model",
    "repro.lint.proof.rules",
    "repro.lint.proof.verifier",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.faults",
    "repro.sim.protocol",
    "repro.sim.executive",
    "repro.sim.trace",
    "repro.sim.runner",
    "repro.sim.values",
    "repro.sim.verify",
    "repro.sim.availability",
    "repro.sim.pipeline",
    "repro.analysis",
    "repro.analysis.metrics",
    "repro.analysis.gantt",
    "repro.analysis.svg",
    "repro.analysis.report",
    "repro.analysis.bounds",
    "repro.analysis.periodic",
    "repro.analysis.experiments",
    "repro.analysis.trace_stats",
    "repro.analysis.advisor",
    "repro.codegen",
    "repro.codegen.macrocode",
    "repro.paper",
    "repro.paper.examples",
    "repro.paper.expected",
    "repro.paper.figures",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} needs a module docstring"
    assert len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", []):
        assert hasattr(module, public), f"{name}.__all__ lists {public}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_documented(name):
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", []):
        obj = getattr(module, public)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # Objects re-exported from elsewhere inherit their docs.
            assert obj.__doc__, f"{name}.{public} needs a docstring"


def test_every_package_module_is_covered():
    """No module of the package escapes the hygiene checks."""
    found = {
        name
        for _, name, _ in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        )
        if not name.endswith("__main__")
    }
    missing = found - set(MODULES)
    assert not missing, f"add to MODULES: {sorted(missing)}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_all_resolves():
    for public in repro.__all__:
        assert hasattr(repro, public)


def test_top_level_does_not_shadow_the_lint_subpackage():
    """``repro.lint`` stays the subpackage, so a dotted import through
    it works in a fresh interpreter (no test has imported it first)."""
    code = (
        "import types\n"
        "import repro.lint.proof.automaton as automaton\n"
        "import repro\n"
        "print(isinstance(repro.lint, types.ModuleType), automaton.__name__)"
    )
    src = Path(repro.__file__).resolve().parents[1]
    printed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert printed.split() == ["True", "repro.lint.proof.automaton"]
