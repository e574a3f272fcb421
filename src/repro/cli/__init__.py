"""Command-line interface: ``python -m repro <command>``.

Subcommands register themselves declaratively instead of growing one
monolithic parser: each module under :mod:`repro.cli.commands` calls
:func:`command` with a name, a help line, and a ``configure(parser)``
hook, and the decorated function becomes the command body.  Shared
flags (``--precision``, ``--backend``, ``--workers``) come from
:mod:`repro.cli.options` so every command spells them identically.

Commands mirror the workflow of the authors' run/profile scripts:

* ``campaign`` — expand a declarative TOML sweep spec into a job
  matrix and run it through the batch service with content-addressed
  dedup, landing one merged ``repro-bench-report/2`` record (see
  ``docs/CAMPAIGN.md``);
* ``model-campaign`` — sweep a parameter space on a *simulated*
  instance (the calibrated performance model) and write the results
  in the artifact layout (``runs.csv`` + profiles);
* ``figure``  — regenerate one paper table/figure as a text table;
* ``anchors`` — print the paper-vs-measured anchor scoreboard;
* ``run-deck`` — parse and execute a LAMMPS input deck (the supported
  command subset, see ``repro.md.deck``);
* ``trace``   — run a functional benchmark under the span tracer and
  write a Chrome trace, metrics snapshots and the timing tables; with
  ``--power`` the same run is sampled by the hardware telemetry
  (RAPL / procfs / calibrated model, auto-detected) and also reports
  the per-phase energy breakdown, TS/s/W over measured joules, and an
  ``energy.json`` record (see ``docs/OBSERVABILITY.md``);
* ``scale``   — run a benchmark on the real shared-memory parallel
  engine, check serial/parallel parity, and report the measured
  per-worker timeline and speedups (see ``docs/SCALING.md``);
* ``checkpoint`` — run a benchmark under periodic checkpointing with
  supervised crash recovery, optionally injecting worker faults, and
  verify restart parity against an uninterrupted run (see
  ``docs/RELIABILITY.md``); the run directory comes out *certified* —
  digest chain + manifest — ready for ``certify``;
* ``serve`` / ``submit`` — the async batch-simulation service over a
  file spool (see ``docs/SERVICE.md``);
* ``certify`` — verify a certified run directory by seedable interval
  replay (bitwise in a matching environment, tolerance-tiered
  cross-mode), or audit a service result cache with ``--cache`` (see
  ``docs/REPRODUCIBILITY.md``).
"""

from __future__ import annotations

import argparse
import os
import select
import sys
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Command", "command", "registered_commands", "build_parser", "main"]


@dataclass(frozen=True)
class Command:
    """One registered subcommand: metadata plus its two hooks."""

    name: str
    help: str
    #: Adds the command's arguments to its freshly made subparser.
    configure: Callable[[argparse.ArgumentParser], None]
    #: The command body; returns the process exit code.
    run: Callable[[argparse.Namespace], int]
    #: Extra keyword arguments for ``add_parser`` (e.g. description).
    parser_kwargs: dict = field(default_factory=dict)


#: Registration order is presentation order in ``--help``.
_REGISTRY: dict[str, Command] = {}


def command(
    name: str,
    help: str,
    *,
    configure: Callable[[argparse.ArgumentParser], None] | None = None,
    **parser_kwargs,
):
    """Decorator: register the function as the body of subcommand ``name``."""

    def decorator(run: Callable[[argparse.Namespace], int]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate CLI command {name!r}")
        _REGISTRY[name] = Command(
            name=name,
            help=help,
            configure=configure or (lambda parser: None),
            run=run,
            parser_kwargs=parser_kwargs,
        )
        return run

    return decorator


def registered_commands() -> dict[str, Command]:
    """Name -> Command, in registration order (loads command modules)."""
    from repro.cli import commands as _commands

    _commands.load()
    return dict(_REGISTRY)


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser over every registered command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IISWC'22 MD-characterization reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in registered_commands().values():
        subparser = sub.add_parser(cmd.name, help=cmd.help, **cmd.parser_kwargs)
        cmd.configure(subparser)
        subparser.set_defaults(func=cmd.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run the selected command; returns its exit code.

    A reader of stdout that exits early (``repro anchors | head``) ends
    the command with exit code 1 and no traceback: stdout is pointed at
    the null device, so the interpreter's own flush at exit cannot fail
    on the closed pipe again.  A broken pipe anywhere else (stdout still
    read, or not a file descriptor) propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        stdout = _closed_stdout_fd()
        if stdout is None:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
        return 1
    return code


def _closed_stdout_fd() -> int | None:
    """Stdout's file descriptor if its reader has gone away (a pipe
    with no read end polls ``POLLERR``, a closed socket ``POLLHUP``),
    else ``None``."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return None
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    closed = select.POLLERR | select.POLLHUP
    return fd if any(events & closed for _, events in poller.poll(0)) else None
