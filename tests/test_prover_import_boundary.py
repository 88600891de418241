"""The prover runs the executive's protocol on the event kernel alone.

The prover and the simulated executive run one protocol module,
``repro.sim.protocol`` (Figure 12's process bodies and the frame
model), so that the artefact the prover verifies is the one the
simulator runs.  What they do not share is everything else: the
prover's modules import ``repro.sim.engine`` and ``repro.sim.protocol``
and no other ``repro.sim`` module (not the executive, the fault model
or the trace the campaign simulates), the protocol imports no
``repro.sim`` module but the kernel, and the kernel itself imports
nothing from ``repro.sim``, ``repro.core`` or ``repro.lint``.  These
facts are read from the source, by AST, and a subprocess checks that
the first holds in ``sys.modules`` too: the ``repro.sim`` package
loads its re-exports lazily.

One function is exempt: ``counterexample_reproducer`` writes a
refutation out in the campaign's reproducer format, so it builds the
campaign's own ``FailureScenario`` (a lazy import, outside any proof).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Set

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Functions whose imports are the export bridge into the campaign.
EXPORT_BRIDGES = {"counterexample_reproducer"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _nodes(node: ast.AST, skip: Set[str]) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter the functions named in ``skip``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name in skip:
            continue
        yield child
        yield from _nodes(child, skip)


def _imports(path: Path, skip: Set[str] = frozenset()) -> Iterator[str]:
    """Every name ``path`` imports, resolved to an absolute dotted name.

    ``from package import name`` yields ``package.name``, so a
    submodule imported by name is seen as that submodule.  Imports
    anywhere count, function-local ones too, except inside ``skip``.
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in _nodes(ast.parse(path.read_text(encoding="utf-8")), skip):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            for alias in node.names:
                yield f"{target}.{alias.name}"


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _proof_modules() -> List[Path]:
    modules = sorted((PACKAGE / "lint" / "proof").glob("*.py"))
    assert modules, "no prover modules found"
    return modules


def _sim_imports(path: Path, skip: Set[str] = frozenset()) -> Set[str]:
    return {name for name in _imports(path, skip) if _within(name, "repro.sim")}


def test_prover_imports_only_the_engine_and_the_protocol_from_sim():
    allowed = ("repro.sim.engine", "repro.sim.protocol")
    offending, imported = {}, set()
    for path in _proof_modules():
        sim = _sim_imports(path, EXPORT_BRIDGES)
        imported |= sim
        other = sorted(
            name for name in sim
            if not any(_within(name, package) for package in allowed)
        )
        if other:
            offending[path.name] = other
    assert not offending, offending
    assert any(_within(name, "repro.sim.protocol") for name in imported), imported


def test_protocol_imports_no_sim_module_but_the_engine():
    sim = _sim_imports(PACKAGE / "sim" / "protocol.py")
    assert sim and all(_within(name, "repro.sim.engine") for name in sim), sim


def test_engine_imports_nothing_from_sim_core_or_lint():
    path = PACKAGE / "sim" / "engine.py"
    forbidden = sorted(
        name
        for name in _imports(path)
        if any(
            _within(name, package)
            for package in ("repro.sim", "repro.core", "repro.lint")
        )
    )
    assert not forbidden, forbidden


def test_importing_the_verifier_loads_no_simulation_module():
    """``import repro.sim.engine`` runs ``repro/sim/__init__.py``, whose
    re-exports must not load the rest of the package."""
    code = (
        "import sys, repro.lint.proof.verifier\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.sim')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    for module in (
        "repro.sim.executive",
        "repro.sim.faults",
        "repro.sim.trace",
        "repro.sim.montecarlo",
    ):
        assert repr(module) not in loaded, loaded
    assert "'repro.sim.engine'" in loaded
    assert "'repro.sim.protocol'" in loaded
