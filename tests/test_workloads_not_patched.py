"""The model's workload table is read, never written, outside its module.

``repro.model.workloads.workloads`` maps each benchmark name to its
:class:`~repro.model.workloads.WorkloadParams`.  A study that wants
an edited benchmark passes ``replace(workload, ...)`` to the executor;
writing the edit into the shared table instead (and restoring it in a
``finally``) leaks into every other caller while it lasts and into
anything memoized on the name.  Checked from the standard library
alone, like ``tests/test_unused_imports.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks")
OWNER = ROOT / "src" / "repro" / "model" / "workloads.py"
#: The dotted path under which the table is reachable.
TABLE = {"repro.model.workloads.workloads"}


def _dotted(node, aliases):
    """The dotted path ``node`` names, with its head resolved through
    the module's imports (``None`` if it is not a plain name chain)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([aliases.get(node.id, node.id), *reversed(parts)])


def table_writes(source: str) -> list[int]:
    """Lines of ``source`` that assign or delete an item of the table."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.asname or alias.name.split(".")[0]
                aliases[head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
        elif isinstance(node, ast.Delete):
            targets.extend(node.targets)
    return sorted(
        target.lineno
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Subscript) and _dotted(sub.value, aliases) in TABLE
    )


@pytest.mark.parametrize("top", CHECKED)
def test_no_module_writes_into_the_workload_table(top):
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != OWNER
        for line in table_writes(path.read_text())
    ]
    assert offenders == []


def test_the_rule_itself():
    source = (
        "from dataclasses import replace\n"
        "from repro.model.workloads import get_workload, workloads\n"
        "import repro.model.workloads as wl\n"
        "from repro import model\n"
        "def f(name, other):\n"
        "    from repro.model.workloads import workloads as table\n"
        "    workloads[name] = replace(workloads[name], newton=True)\n"
        "    wl.workloads[name] = None\n"
        "    model.workloads.workloads[name] = None\n"
        "    del table[name]\n"
        "    other[name] = workloads[name]\n"
        "    return replace(get_workload(name), newton=True)\n"
    )
    assert table_writes(source) == [7, 8, 9, 10]
