"""No environment variable decides how a run computes.

The kernel backend, the power provider, the fault plan and tracing are
chosen by argument (``set_backend``, ``JobSpec``, CLI flags), never by
an exported variable that silently changes what a run computes or
reports.  The only environment reads left in ``src/`` are deployment
settings: ``$CC`` and ``$REPRO_COMPILED_CACHE`` (which compiler builds
the native kernels, and where the build is cached) and glibc's
``MALLOC_*`` tunables (whether the heap policy may override them).
This AST scan keeps it that way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The modules allowed to read the environment, relative to ``src/repro``.
ALLOWED = {"md/kernels/_cc_impl.py", "md/heap.py"}

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Line numbers where ``source`` touches ``os.environ``/``os.getenv``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
            alias.name in _ENV_NAMES for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_deployment_settings_read_the_environment():
    readers = {
        path.relative_to(SRC).as_posix(): environment_reads(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    offenders = {
        name: lines for name, lines in readers.items()
        if lines and name not in ALLOWED
    }
    assert offenders == {}
    # The allowance is not stale: each allowed module still reads it.
    assert all(readers[name] for name in ALLOWED)


def test_the_rule_itself():
    source = (
        "import os\n"
        "from os import getenv\n"
        "x = os.environ.get('A')\n"
        "y = os.getenv('B')\n"
        "z = os.cpu_count()\n"
    )
    assert environment_reads(source) == [2, 3, 4]
