"""Shared option groups so every command spells common flags one way.

``--precision``, ``--backend`` and ``--workers`` appear across half
the subcommands; before the registry refactor each parser re-declared
them with drifting help strings and defaults.  Commands now call these
helpers and override only what genuinely differs (the default worker
count, or a command-specific help suffix).
"""

from __future__ import annotations

import argparse

from repro.md.precision import PRECISIONS

__all__ = [
    "PRECISION_CHOICES",
    "add_precision_option",
    "add_backend_option",
    "add_workers_option",
]

PRECISION_CHOICES = tuple(mode.value for mode in PRECISIONS)

_BACKEND_HELP = (
    "kernel backend (numpy_ref, numpy_fast, compiled, auto); an "
    "unavailable optional backend falls back to numpy_fast with the "
    "reason printed, an unknown name lists what exists"
)


def add_precision_option(
    parser: argparse.ArgumentParser,
    *,
    default: str | None = "double",
    help: str = "dtype policy for the run",
) -> None:
    """``--precision {single,mixed,double}`` with the canonical choices."""
    parser.add_argument(
        "--precision", choices=PRECISION_CHOICES, default=default, help=help
    )


def add_backend_option(
    parser: argparse.ArgumentParser,
    *,
    help: str = _BACKEND_HELP,
) -> None:
    """``--backend NAME`` selecting a kernel backend (default: auto)."""
    parser.add_argument("--backend", default=None, metavar="NAME", help=help)


def add_workers_option(
    parser: argparse.ArgumentParser,
    *,
    default: int | None = 1,
    help: str = "worker process count",
) -> None:
    """``--workers N`` for commands that fan work across processes."""
    parser.add_argument("--workers", type=int, default=default, help=help)
