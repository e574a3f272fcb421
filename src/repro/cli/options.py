"""Shared option groups so every command spells common flags one way.

``--precision``, ``--backend`` and ``--workers`` appear across half
the subcommands; before the registry refactor each parser re-declared
them with drifting help strings and defaults.  Commands now call these
helpers and override only what genuinely differs (the default worker
count, or a command-specific help suffix).  :func:`int_at_least` and
:func:`positive_float` are ``type=`` converters that refuse an
out-of-range number while the arguments are parsed (exit 2, the
message naming the flag).
"""

from __future__ import annotations

import argparse

from repro.md.kernels import AUTO_BACKEND, available_backends
from repro.md.precision import PRECISIONS

__all__ = [
    "PRECISION_CHOICES",
    "add_precision_option",
    "add_backend_option",
    "add_workers_option",
    "int_at_least",
    "positive_float",
]

PRECISION_CHOICES = tuple(mode.value for mode in PRECISIONS)

_BACKEND_HELP = (
    "kernel backend (default numpy_fast); an unavailable optional "
    "backend falls back to numpy_fast with the reason printed"
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
    """``--backend {auto,numpy_ref,numpy_fast,compiled}``.

    Unset (``None``), a run takes ``numpy_fast``; a name outside the
    choices exits 2 while the arguments are parsed.
    """
    parser.add_argument(
        "--backend",
        default=None,
        choices=(AUTO_BACKEND, *available_backends()),
        help=help,
    )


def add_workers_option(
    parser: argparse.ArgumentParser,
    *,
    default: int | None = 1,
    help: str = "worker process count",
) -> None:
    """``--workers N`` for commands that fan work across processes."""
    parser.add_argument("--workers", type=int, default=default, help=help)


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}"
        ) from None


def int_at_least(minimum: int):
    """``type=`` converter: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = _number(int, text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def positive_float(text: str) -> float:
    """``type=`` converter: a float strictly greater than zero."""
    value = _number(float, text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value
