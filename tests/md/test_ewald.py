"""Tests for the Ewald summation solver."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kspace.ewald import EwaldSummation
from repro.md.neighbor import NeighborList
from repro.md.potentials.charmm import CharmmCoulLong

MADELUNG_NACL = 1.747565


def rocksalt(n=4, spacing=1.0):
    """NaCl rock-salt lattice: alternating unit charges on a sc grid."""
    coords = (
        np.array(np.meshgrid(*[np.arange(n)] * 3, indexing="ij")).reshape(3, -1).T
    ).astype(float)
    charges = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
    box = Box(np.full(3, n * spacing))
    system = AtomSystem(coords * spacing + 0.25, box, charges=charges)
    return system


def total_coulomb_energy(system, alpha, real_cutoff=1.9, accuracy=1e-8):
    """Real-space erfc part + reciprocal part + corrections."""
    pair = CharmmCoulLong(
        epsilon=[0.0],
        sigma=[1.0],
        lj_inner=real_cutoff * 0.7,
        cutoff=real_cutoff,
        alpha=alpha,
    )
    nlist = NeighborList(real_cutoff, 0.0)
    nlist.build(system)
    real = pair.energy_only(system, nlist)
    ewald = EwaldSummation(alpha, accuracy=accuracy)
    recip = ewald.energy_only(system)
    return real + recip


class TestMadelung:
    def test_nacl_madelung_constant(self):
        system = rocksalt(4)
        energy = total_coulomb_energy(system, alpha=2.0)
        madelung = -2.0 * energy / system.n_atoms
        assert madelung == pytest.approx(MADELUNG_NACL, rel=1e-5)

    def test_forces_vanish_by_symmetry(self):
        system = rocksalt(4)
        system.forces[:] = 0.0
        EwaldSummation(2.0, accuracy=1e-8).compute(system)
        assert np.allclose(system.forces, 0.0, atol=1e-10)

    def test_energy_independent_of_alpha(self):
        """The alpha split is arbitrary: the total must not depend on it."""
        system = rocksalt(4)
        e1 = total_coulomb_energy(system, alpha=1.6)
        e2 = total_coulomb_energy(system, alpha=2.4)
        assert e1 == pytest.approx(e2, rel=1e-5)


class TestRandomSystems:
    def _random_system(self, seed=3, n=40):
        rng = np.random.default_rng(seed)
        box = Box([8.0, 8.0, 8.0])
        q = rng.normal(size=n)
        q -= q.mean()
        return AtomSystem(rng.uniform(0, 8, (n, 3)), box, charges=q)

    def test_forces_match_finite_differences(self):
        system = self._random_system()
        ewald = EwaldSummation(1.0, accuracy=1e-8)
        system.forces[:] = 0.0
        ewald.compute(system)
        analytic = system.forces.copy()
        h = 1e-6
        for atom in (0, 7, 21):
            for dim in range(3):
                plus = system.copy()
                plus.positions[atom, dim] += h
                minus = system.copy()
                minus.positions[atom, dim] -= h
                e_plus = EwaldSummation(1.0, accuracy=1e-8).energy_only(plus)
                e_minus = EwaldSummation(1.0, accuracy=1e-8).energy_only(minus)
                fd = -(e_plus - e_minus) / (2 * h)
                assert analytic[atom, dim] == pytest.approx(fd, abs=5e-4)

    def test_momentum_conserved(self):
        system = self._random_system(seed=9)
        system.forces[:] = 0.0
        EwaldSummation(1.0).compute(system)
        assert np.allclose(system.forces.sum(axis=0), 0.0, atol=1e-8)

    def test_charged_system_rejected(self):
        box = Box([8, 8, 8])
        system = AtomSystem(np.ones((2, 3)), box, charges=[1.0, 0.5])
        with pytest.raises(ValueError, match="charge-neutral"):
            EwaldSummation(1.0).compute(system)

    def test_virial_matches_volume_derivative(self):
        """W = -3V dE/dV under isotropic scaling of box + coordinates."""
        system = self._random_system(seed=5)
        ewald = EwaldSummation(1.0, accuracy=1e-10)
        system.forces[:] = 0.0
        result = ewald.compute(system)
        eps = 1e-5
        # Scale box and positions together (fractional coords fixed).
        up = system.copy()
        up.box.scale(1 + eps)
        up.positions *= 1 + eps
        down = system.copy()
        down.box.scale(1 - eps)
        down.positions *= 1 - eps
        e_up = EwaldSummation(1.0, accuracy=1e-10).energy_only(up)
        e_down = EwaldSummation(1.0, accuracy=1e-10).energy_only(down)
        v = system.box.volume
        dE_dV = (e_up - e_down) / (((1 + eps) ** 3 - (1 - eps) ** 3) * v)
        assert result.virial == pytest.approx(-3.0 * v * dE_dV, rel=1e-3)


class TestExclusions:
    def test_excluded_pair_contribution_removed(self):
        """With every pair excluded, real(full coulomb over exclusions)
        cancellation: E_kspace + corrections ~ 0 for an isolated dimer."""
        box = Box([20.0, 20.0, 20.0])
        system = AtomSystem(
            np.array([[9.5, 10, 10], [10.5, 10, 10]]), box, charges=[1.0, -1.0]
        )
        ewald = EwaldSummation(
            0.8, accuracy=1e-10, exclusions=np.array([[0, 1]])
        )
        energy = ewald.energy_only(system)
        # Remaining: interaction with periodic images only (tiny for a
        # 20-unit box and a dipole of extent 1).
        assert abs(energy) < 0.02

    def test_exclusions_add_no_kvectors(self):
        """The work count is the k-vector shell alone, not the excluded
        pairs the correction subtracts."""
        rng = np.random.default_rng(5)
        q = rng.normal(size=20)
        system = AtomSystem(
            rng.uniform(0, 8, (20, 3)), Box([8.0] * 3), charges=q - q.mean()
        )
        ewald = EwaldSummation(
            1.0, accuracy=1e-6, exclusions=np.array([[0, 1], [2, 3], [5, 7]])
        )
        result = ewald.compute(system)
        assert result.interactions == ewald.n_kvectors > 0

    def test_validation_parameters(self):
        with pytest.raises(ValueError):
            EwaldSummation(0.0)
        with pytest.raises(ValueError):
            EwaldSummation(1.0, accuracy=2.0)
