"""LAMMPS input-deck parser for the bench-deck command subset.

The paper's workloads are defined by LAMMPS input scripts (the files
under ``lammps/bench``).  This module parses the command subset those
decks use and builds a runnable
:class:`~repro.md.simulation.Simulation`, so e.g. the stock ``in.lj``
deck runs *verbatim* on this engine (see ``decks/in.lj`` and the deck
tests).

Supported commands::

    units           lj | metal | real
    atom_style      <any>              (metadata only)
    dimension       3
    boundary        p p p
    lattice         fcc <density|a> | sc <density|a> | diamond <a>
    region          <id> block <xlo> <xhi> <ylo> <yhi> <zlo> <zhi>
    create_box      <ntypes> <region-id>
    create_atoms    <type> box
    mass            <type> <mass>
    velocity        all create <T> <seed> [ignored options...]
    pair_style      lj/cut <cutoff> | soft <cutoff> | tersoff
    pair_coeff      <i|*> <j|*> <coeffs...>     (file args for tersoff)
    neighbor        <skin> bin
    neigh_modify    ...                 (accepted, informational)
    fix             <id> all nve
    fix             <id> all langevin <T1> <T2> <damp> <seed>
    fix             <id> all nvt temp <T1> <T2> <damp>
    timestep        <dt>
    thermo          <interval>
    run             <steps>
    # comments and blank lines

Unsupported commands raise :class:`DeckError` naming the line — decks
never silently half-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.fixes import LangevinThermostat
from repro.md.integrators import NoseHooverNVT, VelocityVerletNVE
from repro.md.lattice import diamond_positions, fcc_positions, sc_positions
from repro.md.potentials.lj import LennardJonesCut
from repro.md.potentials.soft import SoftRepulsion
from repro.md.potentials.tersoff import Tersoff
from repro.md.simulation import Simulation

__all__ = ["DeckError", "ParsedDeck", "parse_deck", "run_deck"]


class DeckError(ValueError):
    """A deck line could not be understood or is out of order."""


@dataclass
class ParsedDeck:
    """The outcome of parsing: a ready simulation plus run directives."""

    simulation: Simulation
    run_steps: int
    units: str
    commands: list[str] = field(default_factory=list)

    def run(self) -> Simulation:
        """Execute the deck's ``run`` directive."""
        self.simulation.run(self.run_steps)
        return self.simulation


@dataclass
class _DeckState:
    units: str | None = None
    lattice_style: str | None = None
    lattice_value: float = 0.0
    lattice_constant: float = 0.0
    region: tuple[float, ...] | None = None
    n_types: int = 0
    system: AtomSystem | None = None
    masses: dict[int, float] = field(default_factory=dict)
    velocity_seeded: bool = False
    pair_style: str | None = None
    pair_cutoff: float = 0.0
    pair_coeffs: dict[tuple[int, int], tuple[float, ...]] = field(
        default_factory=dict
    )
    skin: float = 0.3
    integrator_cls: type | None = None
    integrator_args: tuple = ()
    fixes: list = field(default_factory=list)
    dt: float = 0.005
    thermo_every: int = 100
    run_steps: int | None = None


def parse_deck(text: str) -> ParsedDeck:
    """Parse a deck and build the simulation it describes."""
    state = _DeckState()
    commands: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        commands.append(line)
        tokens = line.split()
        command, args = tokens[0], tokens[1:]
        try:
            handler = _HANDLERS[command]
        except KeyError:
            raise DeckError(
                f"line {line_no}: unsupported command {command!r}"
            ) from None
        try:
            handler(state, args)
        except DeckError:
            raise
        except Exception as error:  # malformed arguments
            raise DeckError(f"line {line_no}: {command}: {error}") from error

    if state.system is None:
        raise DeckError("deck never created atoms (create_atoms missing)")
    if state.pair_style is None:
        raise DeckError("deck defines no pair_style")
    if state.run_steps is None:
        raise DeckError("deck has no run command")

    potential = _build_potential(state)
    integrator = (
        state.integrator_cls(*state.integrator_args)
        if state.integrator_cls is not None
        else VelocityVerletNVE()
    )
    simulation = Simulation(
        state.system,
        [potential],
        integrator=integrator,
        fixes=list(state.fixes),
        dt=state.dt,
        skin=state.skin,
        thermo_every=state.thermo_every,
    )
    return ParsedDeck(
        simulation=simulation,
        run_steps=state.run_steps,
        units=state.units or "lj",
        commands=commands,
    )


def run_deck(path: str | Path) -> Simulation:
    """Parse and execute a deck file."""
    deck = parse_deck(Path(path).read_text())
    return deck.run()


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------
def _cmd_units(state: _DeckState, args: list[str]) -> None:
    if len(args) != 1 or args[0] not in ("lj", "metal", "real"):
        raise DeckError(f"units must be lj/metal/real, got {args}")
    state.units = args[0]


def _cmd_noop(state: _DeckState, args: list[str]) -> None:
    return None


def _cmd_dimension(state: _DeckState, args: list[str]) -> None:
    if args != ["3"]:
        raise DeckError("only 3-dimensional decks are supported")


def _cmd_boundary(state: _DeckState, args: list[str]) -> None:
    if args != ["p", "p", "p"]:
        raise DeckError("only fully periodic boundaries are supported")


def _cmd_lattice(state: _DeckState, args: list[str]) -> None:
    style, value = args[0], float(args[1])
    if style not in ("fcc", "sc", "diamond"):
        raise DeckError(f"unsupported lattice style {style!r}")
    state.lattice_style = style
    state.lattice_value = value
    atoms_per_cell = {"fcc": 4, "sc": 1, "diamond": 8}[style]
    if state.units == "lj":
        # LAMMPS lj units: the value is a reduced *density*.
        state.lattice_constant = (atoms_per_cell / value) ** (1.0 / 3.0)
    else:
        # metal/real units: the value is the lattice constant itself.
        state.lattice_constant = value


def _cmd_region(state: _DeckState, args: list[str]) -> None:
    if len(args) < 8 or args[1] != "block":
        raise DeckError("only 'region <id> block xlo xhi ylo yhi zlo zhi'")
    bounds = tuple(float(x) for x in args[2:8])
    if bounds[0] != 0 or bounds[2] != 0 or bounds[4] != 0:
        raise DeckError("region must start at the origin")
    state.region = bounds


def _cmd_create_box(state: _DeckState, args: list[str]) -> None:
    state.n_types = int(args[0])
    if state.n_types < 1:
        raise DeckError("create_box needs at least one atom type")


def _cmd_create_atoms(state: _DeckState, args: list[str]) -> None:
    if state.lattice_style is None or state.region is None:
        raise DeckError("create_atoms before lattice/region")
    atom_type = int(args[0]) - 1
    # Region bounds are in lattice units: whole unit cells only.
    nx, ny, nz = (int(round(state.region[i])) for i in (1, 3, 5))
    if min(nx, ny, nz) < 1:
        raise DeckError("region must span at least one lattice cell")
    if nx != ny or ny != nz:
        raise DeckError("only cubic regions are supported")
    builder = {
        "fcc": fcc_positions,
        "sc": sc_positions,
        "diamond": diamond_positions,
    }[state.lattice_style]
    positions, box = builder(nx, state.lattice_constant)
    state.system = AtomSystem(
        positions, box, types=np.full(len(positions), atom_type, dtype=np.int64)
    )


def _cmd_mass(state: _DeckState, args: list[str]) -> None:
    state.masses[int(args[0]) - 1] = float(args[1])
    if state.system is not None:
        for atom_type, mass in state.masses.items():
            state.system.masses[state.system.types == atom_type] = mass


def _cmd_velocity(state: _DeckState, args: list[str]) -> None:
    if state.system is None:
        raise DeckError("velocity before create_atoms")
    if args[0] != "all" or args[1] != "create":
        raise DeckError("only 'velocity all create T seed ...'")
    temperature, seed = float(args[2]), int(args[3])
    state.system.seed_velocities(temperature, np.random.default_rng(seed))
    state.velocity_seeded = True


def _cmd_pair_style(state: _DeckState, args: list[str]) -> None:
    style = args[0]
    if style not in ("lj/cut", "soft", "tersoff"):
        raise DeckError(f"unsupported pair_style {style!r}")
    state.pair_style = style
    if style == "tersoff":
        # LAMMPS takes no cutoff here; it lives in the parameter set.
        state.pair_cutoff = Tersoff().cutoff
    else:
        state.pair_cutoff = float(args[1])


def _cmd_pair_coeff(state: _DeckState, args: list[str]) -> None:
    if state.pair_style is None:
        raise DeckError("pair_coeff before pair_style")

    if state.pair_style == "tersoff":
        # LAMMPS form is ``pair_coeff * * <file> <elements...>``; the
        # single-species T3 silicon set is built in, so the tokens are
        # accepted as provenance metadata only.
        if args[:2] != ["*", "*"]:
            raise DeckError("tersoff pair_coeff must be '* * <file> <elem>'")
        return

    def type_index(token: str) -> int:
        return 0 if token == "*" else int(token) - 1

    i, j = type_index(args[0]), type_index(args[1])
    state.pair_coeffs[(i, j)] = tuple(float(x) for x in args[2:])


def _cmd_neighbor(state: _DeckState, args: list[str]) -> None:
    state.skin = float(args[0])
    if len(args) > 1 and args[1] not in ("bin", "nsq"):
        raise DeckError(f"unsupported neighbor style {args[1]!r}")


def _cmd_fix(state: _DeckState, args: list[str]) -> None:
    if len(args) < 3 or args[1] != "all":
        raise DeckError("only 'fix <id> all <style> ...'")
    style = args[2]
    rest = args[3:]
    if style == "nve":
        state.integrator_cls = VelocityVerletNVE
        state.integrator_args = ()
    elif style == "nvt":
        if rest[:1] != ["temp"]:
            raise DeckError("fix nvt needs 'temp T1 T2 damp'")
        t_start, damp = float(rest[1]), float(rest[3])
        state.integrator_cls = NoseHooverNVT
        state.integrator_args = (t_start, damp)
    elif style == "langevin":
        t_start, damp, seed = float(rest[0]), float(rest[2]), int(rest[3])
        state.fixes.append(
            LangevinThermostat(t_start, damp, np.random.default_rng(seed))
        )
    else:
        raise DeckError(f"unsupported fix style {style!r}")


def _cmd_timestep(state: _DeckState, args: list[str]) -> None:
    state.dt = float(args[0])
    if state.dt <= 0:
        raise DeckError("timestep must be positive")


def _cmd_thermo(state: _DeckState, args: list[str]) -> None:
    state.thermo_every = int(args[0])


def _cmd_run(state: _DeckState, args: list[str]) -> None:
    state.run_steps = int(args[0])
    if state.run_steps < 0:
        raise DeckError("run steps must be non-negative")


def _build_potential(state: _DeckState):
    n_types = max(state.n_types, 1)
    if state.pair_style == "tersoff":
        return Tersoff()
    if state.pair_style == "soft":
        coeffs = state.pair_coeffs.get((0, 0), (1.0,))
        return SoftRepulsion(coeffs[0], state.pair_cutoff)
    # lj/cut: gather per-type epsilon/sigma from the diagonal coeffs
    # (a ``* *`` entry acts as the wildcard default for every type).
    epsilons = np.ones(n_types)
    sigmas = np.ones(n_types)
    wildcard = state.pair_coeffs.get((0, 0))
    for t in range(n_types):
        coeffs = state.pair_coeffs.get((t, t), wildcard)
        if coeffs is None:
            raise DeckError(f"no pair_coeff for type {t + 1}")
        epsilons[t], sigmas[t] = coeffs[0], coeffs[1]
    cutoff = state.pair_cutoff
    # A per-pair cutoff in pair_coeff overrides the global one.
    if wildcard is not None and len(wildcard) > 2:
        cutoff = wildcard[2]
    return LennardJonesCut(epsilons, sigmas, cutoff=cutoff)


_HANDLERS = {
    "units": _cmd_units,
    "atom_style": _cmd_noop,
    "atom_modify": _cmd_noop,
    "neigh_modify": _cmd_noop,
    "dimension": _cmd_dimension,
    "boundary": _cmd_boundary,
    "lattice": _cmd_lattice,
    "region": _cmd_region,
    "create_box": _cmd_create_box,
    "create_atoms": _cmd_create_atoms,
    "mass": _cmd_mass,
    "velocity": _cmd_velocity,
    "pair_style": _cmd_pair_style,
    "pair_coeff": _cmd_pair_coeff,
    "neighbor": _cmd_neighbor,
    "fix": _cmd_fix,
    "timestep": _cmd_timestep,
    "thermo": _cmd_thermo,
    "run": _cmd_run,
}
