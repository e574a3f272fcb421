"""Subcommand modules; importing one registers its commands.

:func:`load` imports every module exactly once, in the order commands
should appear in ``python -m repro --help``.  New commands add their
module name here — nothing else in the CLI needs to change.
"""

from __future__ import annotations

import importlib

#: ``--help`` presentation order.
_MODULES = (
    "campaign",
    "model",
    "deck",
    "trace",
    "scale",
    "checkpoint",
    "service",
    "certify",
)

_loaded = False


def load() -> None:
    global _loaded
    if _loaded:
        return
    for name in _MODULES:
        importlib.import_module(f"repro.cli.commands.{name}")
    _loaded = True
