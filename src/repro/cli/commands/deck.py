"""``run-deck`` — parse and execute a LAMMPS input deck."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli import command


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("deck", help="path to the input script")


@command(
    "run-deck",
    "execute a LAMMPS input deck",
    configure=_configure,
)
def _cmd_run_deck(args: argparse.Namespace) -> int:
    from repro.md.deck import parse_deck
    from repro.model.framework.tables import render_breakdown

    deck = parse_deck(Path(args.deck).read_text())
    print(f"parsed {len(deck.commands)} commands "
          f"({deck.units} units, {deck.simulation.system.n_atoms} atoms); "
          f"running {deck.run_steps} steps ...")
    simulation = deck.run()
    print(f"done: {simulation.counts.timesteps} steps, "
          f"T = {simulation.system.temperature():.4f}, "
          f"E_total = {simulation.total_energy():.4f}")
    print(render_breakdown(simulation.task_breakdown(), title="Task breakdown:"))
    return 0
