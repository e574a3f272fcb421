"""The engine imports nothing from the performance model.

The repo answers the paper twice: the real engine measures, the
calibrated model of the paper's two nodes predicts.  The model
(:mod:`repro.model`) and its consumers (:mod:`repro.figures`,
:mod:`repro.studies`) may import the engine; the engine, the batch
service and everything they are built on may not import them, so a
measured record can never pick up a modeled number and a service worker
never pays for loading the model.  Three checks: the import statements
(from the standard library alone, like ``tests/test_unused_imports.py``),
what a fresh interpreter actually loads, and that the pre-move paths are
gone rather than kept as shims.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The model and the packages that consume it.
MODEL_SIDE = ("repro.model", "repro.figures", "repro.studies")
#: Engine-side packages and top-level modules.
ENGINE_PACKAGES = (
    "md", "parallel", "service", "reliability", "observability", "campaign", "suite",
)
ENGINE_MODULES = ("__init__.py", "atomicio.py", "report.py")
#: Where the model lived before it moved under ``repro.model``.
OLD_PATHS = (
    "repro.core",
    "repro.gpu",
    "repro.platforms",
    "repro.perfmodel",
    "repro.parallel.executor",
    "repro.parallel.mpi_model",
    "repro.parallel.openmp",
    "repro.parallel.multinode",
)


def _engine_files():
    package = SRC / "repro"
    for name in ENGINE_PACKAGES:
        yield from sorted((package / name).rglob("*.py"))
    for name in ENGINE_MODULES:
        yield package / name


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(source: str, module: str, is_package: bool) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import in ``source``, at any depth.

    ``from a import b`` yields ``a.b`` (``b`` may be a submodule);
    relative imports are resolved against ``module``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                anchor = anchor[: len(anchor) - node.level + (1 if is_package else 0)]
                base = ".".join(filter(None, [*anchor, base]))
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
    return found


def _is_model_side(name: str) -> bool:
    return any(name == side or name.startswith(side + ".") for side in MODEL_SIDE)


def test_no_engine_module_imports_the_model():
    offenders = [
        f"{path.relative_to(ROOT)}:{line} imports {name}"
        for path in _engine_files()
        for line, name in imported_modules(
            path.read_text(), _module_name(path), path.name == "__init__.py"
        )
        if _is_model_side(name)
    ]
    assert offenders == []


def test_the_rule_itself():
    source = (
        "import numpy\n"
        "import repro.model.cpu.executor\n"
        "from repro import figures\n"
        "from repro.md import Simulation\n"
        "def f():\n"
        "    from repro.studies.newton import newton_ablation\n"
        "    from ..model import simulate_cpu_run\n"
        "    from .engine import ParallelForceExecutor\n"
    )
    names = imported_modules(source, "repro.parallel.halo", False)
    assert [line for line, name in names if _is_model_side(name)] == [2, 3, 6, 7]
    assert (8, "repro.parallel.engine.ParallelForceExecutor") in names


@pytest.mark.parametrize("module", ["repro.service", "repro.md", "repro.reliability"])
def test_a_fresh_engine_import_loads_no_model_module(module):
    """Nor scipy: the engine's scipy calls (k-space ``erf``, CHARMM's
    ``erfc``, float32 FFTs) import it on first use, so a service worker
    that never runs rhodo never pays for loading it.  Nor the C unit
    (``_cc_impl``), which the ``compiled`` backend imports when it is
    first resolved."""
    lazy = (*MODEL_SIDE, "scipy", "repro.md.kernels._cc_impl")
    probe = (
        f"import sys, {module}\n"
        f"print('\\n'.join(sorted(m for m in sys.modules "
        f"if m.startswith({lazy!r}))))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []


@pytest.mark.parametrize("name", OLD_PATHS)
def test_pre_move_paths_are_gone(name):
    assert importlib.util.find_spec(name) is None
