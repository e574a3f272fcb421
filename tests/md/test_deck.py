"""Tests for the LAMMPS input-deck parser."""

from pathlib import Path

import numpy as np
import pytest

from repro.md.deck import DeckError, parse_deck, run_deck
from repro.md.integrators import NoseHooverNVT

DECKS_DIR = Path(__file__).resolve().parents[2] / "decks"

IN_LJ = (DECKS_DIR / "in.lj").read_text()


class TestInLj:
    """The stock LAMMPS bench deck parses and runs verbatim."""

    def test_parses(self):
        deck = parse_deck(IN_LJ)
        assert deck.units == "lj"
        assert deck.run_steps == 100
        assert deck.simulation.system.n_atoms == 4 * 5**3
        assert deck.simulation.dt == pytest.approx(0.005)
        assert deck.simulation.neighbor.skin == pytest.approx(0.3)

    def test_lattice_density_honoured(self):
        deck = parse_deck(IN_LJ)
        assert deck.simulation.system.density() == pytest.approx(0.8442)

    def test_velocity_seeded_at_144(self):
        deck = parse_deck(IN_LJ)
        assert deck.simulation.system.temperature() == pytest.approx(1.44)

    def test_famous_melt_temperature(self):
        """LAMMPS's canonical melt: T drops to ~0.7 as the fcc crystal
        melts and kinetic energy converts to potential."""
        sim = run_deck(DECKS_DIR / "in.lj")
        assert sim.counts.timesteps == 100
        assert 0.6 < sim.system.temperature() < 0.85

    def test_neighbors_match_table2(self):
        sim = run_deck(DECKS_DIR / "in.lj")
        assert sim.neighbor.neighbors_per_atom() == pytest.approx(
            55, rel=0.06
        )

    def test_energy_conserved(self):
        deck = parse_deck(IN_LJ)
        deck.simulation.setup()
        e0 = deck.simulation.total_energy()
        deck.run()
        assert deck.simulation.total_energy() == pytest.approx(e0, rel=5e-4)


class TestInTersoff:
    """The Tersoff silicon deck parses and runs on the real engine."""

    def test_parses(self):
        deck = parse_deck((DECKS_DIR / "in.tersoff").read_text())
        assert deck.units == "metal"
        assert deck.simulation.system.n_atoms == 8 * 4**3
        assert deck.simulation.dt == pytest.approx(0.001)
        from repro.md.potentials.tersoff import Tersoff

        assert isinstance(deck.simulation.potentials[0], Tersoff)
        assert deck.simulation.neighbor.full

    def test_diamond_lattice_masses(self):
        deck = parse_deck((DECKS_DIR / "in.tersoff").read_text())
        assert np.all(deck.simulation.system.masses == pytest.approx(28.0855))

    def test_energy_conserved(self):
        deck = parse_deck((DECKS_DIR / "in.tersoff").read_text())
        deck.simulation.setup()
        e0 = deck.simulation.total_energy()
        deck.run()
        assert deck.simulation.counts.timesteps == 100
        assert deck.simulation.total_energy() == pytest.approx(e0, rel=1e-6)

    def test_tersoff_pair_coeff_validated(self):
        text = (DECKS_DIR / "in.tersoff").read_text().replace(
            "pair_coeff	* * Si.tersoff Si", "pair_coeff	1 1 Si.tersoff Si"
        )
        with pytest.raises(DeckError, match="tersoff pair_coeff"):
            parse_deck(text)


class TestCommandHandling:
    def test_comments_and_blanks_ignored(self):
        deck = parse_deck(IN_LJ + "\n# trailing comment\n\n")
        assert deck.run_steps == 100

    def test_unsupported_command_named(self):
        with pytest.raises(DeckError, match="line .*: unsupported command 'dump'"):
            parse_deck("dump 1 all atom 50 melt.dump")

    def test_missing_run_rejected(self):
        text = IN_LJ.replace("run\t\t100", "")
        with pytest.raises(DeckError, match="no run command"):
            parse_deck(text)

    def test_missing_pair_style_rejected(self):
        text = "\n".join(
            line for line in IN_LJ.splitlines() if not line.startswith("pair_")
        )
        with pytest.raises(DeckError, match="pair_style"):
            parse_deck(text)

    def test_create_atoms_requires_lattice(self):
        with pytest.raises(DeckError):
            parse_deck("units lj\ncreate_atoms 1 box\nrun 1")

    def test_malformed_arguments_name_the_line(self):
        bad = IN_LJ.replace("timestep\t0.005", "timestep\tfast")
        with pytest.raises(DeckError, match="timestep"):
            parse_deck(bad)

    def test_non_positive_timestep_rejected(self):
        bad = IN_LJ.replace("timestep\t0.005", "timestep\t0")
        with pytest.raises(DeckError, match="positive"):
            parse_deck(bad)

    def test_units_validation(self):
        with pytest.raises(DeckError, match="units"):
            parse_deck("units si\nrun 1")


class TestVariants:
    def test_fix_nvt(self):
        text = IN_LJ.replace(
            "fix\t\t1 all nve", "fix\t\t1 all nvt temp 1.0 1.0 0.5"
        )
        deck = parse_deck(text)
        assert isinstance(deck.simulation.integrator, NoseHooverNVT)
        assert deck.simulation.integrator.temperature == pytest.approx(1.0)

    def test_fix_langevin_added_on_top_of_nve(self):
        text = IN_LJ.replace(
            "fix\t\t1 all nve",
            "fix\t\t1 all nve\nfix\t\t2 all langevin 1.0 1.0 0.5 48279",
        )
        deck = parse_deck(text)
        assert len(deck.simulation.fixes) == 1

    def test_soft_pair_style(self):
        text = IN_LJ.replace("pair_style\tlj/cut 2.5", "pair_style\tsoft 1.12")
        text = text.replace("pair_coeff\t1 1 1.0 1.0 2.5", "pair_coeff\t* * 10.0")
        deck = parse_deck(text)
        from repro.md.potentials.soft import SoftRepulsion

        assert isinstance(deck.simulation.potentials[0], SoftRepulsion)

    def test_wildcard_pair_coeff(self):
        text = IN_LJ.replace(
            "pair_coeff\t1 1 1.0 1.0 2.5", "pair_coeff\t* * 0.5 1.1 2.5"
        )
        deck = parse_deck(text)
        lj = deck.simulation.potentials[0]
        assert lj.eps_table[0, 0] == pytest.approx(0.5)
        assert lj.sigma_table[0, 0] == pytest.approx(1.1)

    def test_metal_units_lattice_constant(self):
        text = """
units metal
lattice fcc 3.615
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 63.546
pair_style lj/cut 4.0
pair_coeff 1 1 0.4 2.3 4.0
neighbor 1.0 bin
fix 1 all nve
timestep 0.002
run 5
"""
        deck = parse_deck(text)
        # metal units: the lattice value IS the lattice constant.
        assert deck.simulation.system.box.lengths[0] == pytest.approx(3 * 3.615)
        assert deck.simulation.system.masses[0] == pytest.approx(63.546)

    def test_deterministic_given_seed(self):
        a = parse_deck(IN_LJ).simulation.system.velocities
        b = parse_deck(IN_LJ).simulation.system.velocities
        assert np.array_equal(a, b)
