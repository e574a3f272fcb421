"""The engine asks potentials what they need; it never asks what they are.

``src/repro/parallel`` drives every potential through its one force
body (``PairPotential.evaluate``) and reads declared needs
(``halo_width``, ``needs_velocities``, ``history``).  An ``isinstance``
on a potential class, or an import of a concrete potential module, is
how a per-potential fork starts — the ``isinstance`` ladder this rule
replaced ended in "no parallel adapter for potential Tersoff".  Checked
from the standard library alone, like ``tests/test_unused_imports.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POTENTIALS = ROOT / "src" / "repro" / "md" / "potentials"
PACKAGE = "repro.md.potentials"


def potential_classes() -> set[str]:
    """``PairPotential`` and every class under ``md/potentials`` that
    derives from it, by name."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for path in POTENTIALS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    found = {"PairPotential"}
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found
        found |= more


def offences(source: str, classes: set[str]) -> list[tuple[int, str]]:
    """``(line, what)`` for each forbidden construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            concrete = node.module.startswith(PACKAGE + ".") and (
                node.module != PACKAGE + ".base"
            )
            named = {alias.name for alias in node.names} & classes
            if concrete or (
                node.module.startswith(PACKAGE) and named - {"PairPotential"}
            ):
                found.append((node.lineno, f"import from {node.module}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and (
                    alias.name != PACKAGE + ".base"
                ):
                    found.append((node.lineno, f"import {alias.name}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            named = {
                getattr(n, "id", None) or getattr(n, "attr", None)
                for n in ast.walk(node.args[1])
            }
            for name in sorted(named & classes):
                found.append((node.lineno, f"isinstance on {name}"))
    return sorted(found)


def test_parallel_never_names_a_potential():
    classes = potential_classes()
    assert {"EAMAlloy", "HookeHistory", "Tersoff", "LennardJonesCut"} <= classes
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src" / "repro" / "parallel").glob("*.py"))
        for line, what in offences(path.read_text(), classes)
    ]
    assert offenders == []


def test_the_rule_itself():
    classes = {"PairPotential", "EAMAlloy", "Tersoff"}
    source = (
        "from repro.md.potentials.base import PairPotential, PairRows\n"
        "from repro.md.potentials.eam import EAMAlloy\n"
        "from repro.md.potentials import Tersoff, ForceResult\n"
        "import repro.md.potentials.granular\n"
        "def f(p, q):\n"
        "    a = isinstance(p, (int, potentials.Tersoff))\n"
        "    b = isinstance(p, PairPotential)\n"
        "    return a, b, isinstance(q, dict), p.halo_width(1.0)\n"
    )
    assert offences(source, classes) == [
        (2, "import from repro.md.potentials.eam"),
        (3, "import from repro.md.potentials"),
        (4, "import repro.md.potentials.granular"),
        (6, "isinstance on Tersoff"),
        (7, "isinstance on PairPotential"),
    ]
