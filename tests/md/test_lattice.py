"""Tests for the initial-configuration builders."""

import numpy as np
import pytest

from repro.md.lattice import (
    build_exclusions,
    chute_system,
    eam_solid_system,
    fcc_positions,
    lj_melt_system,
    polymer_melt_system,
    rhodopsin_proxy_system,
    sc_positions,
)


class TestLattices:
    def test_fcc_atom_count(self):
        positions, box = fcc_positions(3, 2.0)
        assert len(positions) == 4 * 27
        assert np.allclose(box.lengths, 6.0)

    def test_fcc_nearest_neighbor_distance(self):
        positions, box = fcc_positions(3, 2.0)
        d = box.distance(positions[0][None, :], positions[1:])
        assert d.min() == pytest.approx(2.0 / np.sqrt(2.0))

    def test_sc_atom_count(self):
        positions, box = sc_positions(4, 1.5)
        assert len(positions) == 64
        assert np.allclose(box.lengths, 6.0)

    def test_invalid_cells_rejected(self):
        with pytest.raises(ValueError):
            fcc_positions(0, 1.0)
        with pytest.raises(ValueError):
            sc_positions(0, 1.0)


class TestLjMelt:
    def test_density_matches_request(self):
        system = lj_melt_system(500, density=0.8442)
        assert system.density() == pytest.approx(0.8442, rel=1e-9)

    def test_temperature_seeded(self):
        system = lj_melt_system(500, temperature=1.44)
        assert system.temperature() == pytest.approx(1.44, rel=1e-9)

    def test_deterministic_for_seed(self):
        a = lj_melt_system(200, seed=7)
        b = lj_melt_system(200, seed=7)
        assert np.allclose(a.velocities, b.velocities)


class TestPolymerMelt:
    def test_chain_topology(self):
        system = polymer_melt_system(4, 10, pushoff_steps=50)
        assert system.n_atoms == 40
        assert system.topology.n_bonds == 4 * 9
        # Bonds only link consecutive beads of the same chain.
        mol = system.molecule_ids
        bonds = system.topology.bonds
        assert np.all(mol[bonds[:, 0]] == mol[bonds[:, 1]])

    def test_pushoff_removes_hard_overlaps(self):
        system = polymer_melt_system(6, 15, pushoff_steps=150, seed=5)
        from repro.md.neighbor import brute_force_pairs

        i, j = brute_force_pairs(system.positions, system.box, 0.7)
        assert len(i) == 0  # no pair closer than 0.7 sigma

    def test_bond_lengths_reasonable_after_pushoff(self):
        system = polymer_melt_system(4, 12, pushoff_steps=150)
        bonds = system.topology.bonds
        r = system.box.distance(
            system.positions[bonds[:, 0]], system.positions[bonds[:, 1]]
        )
        assert np.all(r < 1.45)  # inside the FENE extensibility limit

    @pytest.mark.parametrize("n_chains", [20, 60])
    def test_pushoff_postcondition_holds_where_the_ramp_alone_failed(
        self, n_chains
    ):
        """500 and 1 500 beads at the default seed: the ramp left bonds
        of 1.494 and 1.517 (R0 = 1.5); the finishing pass must bring
        them inside 1.5 x bond_length without opening tight contacts."""
        system = polymer_melt_system(n_chains, 25)
        bonds = system.topology.bonds
        r = system.box.distance(
            system.positions[bonds[:, 0]], system.positions[bonds[:, 1]]
        )
        assert r.max() <= 1.5 * 0.97
        from repro.md.neighbor import brute_force_pairs

        assert len(brute_force_pairs(system.positions, system.box, 0.8)[0]) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            polymer_melt_system(0, 10)
        with pytest.raises(ValueError):
            polymer_melt_system(1, 1)


class TestChute:
    def test_geometry(self):
        system = chute_system(5, 4, 3)
        assert system.n_atoms == 60
        assert system.is_granular
        assert not system.box.periodic[2]

    def test_bed_is_compressed(self):
        """Adjacent grains overlap slightly so contacts exist at t=0."""
        system = chute_system(5, 5, 3)
        from repro.md.neighbor import brute_force_pairs

        i, j = brute_force_pairs(system.positions, system.box, 1.0)
        assert len(i) > 0

    def test_all_above_floor(self):
        system = chute_system(4, 4, 2)
        assert np.all(system.positions[:, 2] > 0)


class TestEamSolid:
    def test_copper_mass(self):
        system = eam_solid_system(256)
        assert system.masses[0] == pytest.approx(63.546)

    def test_lattice_constant(self):
        system = eam_solid_system(256, lattice_constant=3.615)
        # Box side = cells * a.
        assert system.box.lengths[0] % 3.615 == pytest.approx(0.0, abs=1e-9)


class TestRhodopsinProxy:
    def test_water_geometry(self):
        proxy = rhodopsin_proxy_system(27)
        system = proxy.system
        assert system.n_atoms == 81
        # O-H distances exactly at the SHAKE target.
        i, j = proxy.shake_pairs[:, 0], proxy.shake_pairs[:, 1]
        r = system.box.distance(system.positions[i], system.positions[j])
        assert np.allclose(r, proxy.shake_distances, atol=1e-8)

    def test_charge_neutral(self):
        proxy = rhodopsin_proxy_system(27, n_solute_beads=5)
        assert abs(proxy.system.charges.sum()) < 1e-9

    def test_solute_carved_out_of_solvent(self):
        proxy = rhodopsin_proxy_system(27, n_solute_beads=6)
        system = proxy.system
        solute = system.types == 2
        assert solute.sum() == 6
        waters = system.positions[system.types == 0]
        for bead in system.positions[solute]:
            assert system.box.distance(waters, bead[None, :]).min() > 2.0

    def test_exclusions_cover_molecules(self):
        proxy = rhodopsin_proxy_system(8)
        # 3 exclusion pairs per water (O-H1, O-H2, H1-H2 via angle).
        assert len(proxy.exclusions) == 8 * 3

    def test_build_exclusions_deduplicates(self):
        from repro.md.atoms import Topology

        topo = Topology(
            bonds=np.array([[0, 1], [1, 0]]), angles=np.array([[0, 1, 2]])
        )
        excl = build_exclusions(topo)
        assert len(excl) == 2  # {0,1} once plus {0,2}

    def test_too_many_solute_beads_rejected(self):
        with pytest.raises(ValueError, match="solute chain"):
            rhodopsin_proxy_system(8, n_solute_beads=100)
