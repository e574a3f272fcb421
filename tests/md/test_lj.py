"""Tests for the Lennard-Jones pair potential."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList
from repro.md.potentials.lj import WCA_CUTOFF, LennardJonesCut

from tests.conftest import BACKEND_TWINS, finite_difference_forces


def _evaluate(positions, box, potential):
    system = AtomSystem(positions, box)
    nlist = NeighborList(potential.cutoff, 0.3)
    nlist.build(system)
    system.forces[:] = 0.0
    result = potential.compute(system, nlist)
    return system, result


class TestPairEnergy:
    def test_minimum_at_r_min(self):
        lj = LennardJonesCut(shift=False)
        r = np.linspace(0.9, 2.4, 2000)
        energies = lj.pair_energy(r)
        r_min = r[np.argmin(energies)]
        assert r_min == pytest.approx(2.0 ** (1 / 6), abs=1e-3)
        assert energies.min() == pytest.approx(-1.0, abs=1e-4)

    def test_zero_crossing_at_sigma(self):
        lj = LennardJonesCut(shift=False)
        assert lj.pair_energy(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_shift_zeroes_energy_at_cutoff(self):
        lj = LennardJonesCut(cutoff=2.5, shift=True)
        edge = lj.pair_energy(np.array([2.5 - 1e-9]))[0]
        assert edge == pytest.approx(0.0, abs=1e-6)

    def test_wca_cutoff_constant(self):
        assert WCA_CUTOFF == pytest.approx(2.0 ** (1 / 6))


class TestForces:
    #: Kernel backend every check here computes on.
    backend = "numpy_fast"

    def _lj(self, **kwargs):
        lj = LennardJonesCut(**kwargs)
        lj.backend = self.backend
        return lj

    def test_dimer_force_repulsive_inside_minimum(self):
        box = Box([20, 20, 20])
        system, _ = _evaluate(
            np.array([[5.0, 5, 5], [6.0, 5, 5]]), box, self._lj()
        )
        # r = 1.0 < r_min: particles repel along +/- x.
        assert system.forces[0, 0] < 0
        assert system.forces[1, 0] > 0

    def test_newtons_third_law(self):
        rng = np.random.default_rng(11)
        box = Box([8, 8, 8])
        system, _ = _evaluate(rng.uniform(0, 8, (30, 3)), box, self._lj())
        scale = float(np.abs(system.forces).max())
        assert np.allclose(system.forces.sum(axis=0), 0.0, atol=1e-12 * scale)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=BACKEND_TWINS)
    def test_forces_match_finite_differences(self, seed):
        """Property: analytic forces equal -grad E on random configs."""
        rng = np.random.default_rng(seed)
        box = Box([8.0, 8.0, 8.0])
        # Keep a minimum separation so the energy surface is smooth
        # enough for central differences.
        positions = rng.uniform(0, 8, (12, 3))
        lj = self._lj(cutoff=2.5)

        def energy(pos):
            system = AtomSystem(pos, box)
            nlist = NeighborList(2.5, 0.3)
            nlist.build(system)
            return lj.energy_only(system, nlist)

        system, _ = _evaluate(positions, box, lj)
        reference = finite_difference_forces(energy, system.positions, h=1e-6)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.allclose(system.forces, reference, atol=5e-4 * scale)

    def test_virial_positive_for_compressed_pair(self):
        box = Box([20, 20, 20])
        __, result = _evaluate(
            np.array([[5.0, 5, 5], [6.0, 5, 5]]), box, self._lj()
        )
        assert result.virial > 0  # repulsive core pushes outward

    def test_interactions_counted(self):
        box = Box([20, 20, 20])
        __, result = _evaluate(
            np.array([[5.0, 5, 5], [6.0, 5, 5], [5.0, 6, 5]]), box, self._lj()
        )
        assert result.interactions == 3


class TestForcesCompiled(TestForces):
    """The same checks through the native routes of ``compiled``
    (``numpy_fast`` with a warning where no C compiler builds)."""

    backend = "compiled"


class TestMultiType:
    def test_cross_type_uses_mixed_tables(self):
        box = Box([20, 20, 20])
        lj = LennardJonesCut(
            epsilon=np.array([1.0, 4.0]),
            sigma=np.array([1.0, 1.0]),
            cutoff=2.5,
            shift=False,
            mix_style="geometric",
        )
        system = AtomSystem(
            np.array([[5.0, 5, 5], [6.1, 5, 5]]), box, types=[0, 1]
        )
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        # eps_mixed = sqrt(1 * 4) = 2 -> energy is twice the eps=1 dimer's.
        e_mixed = lj.energy_only(system, nlist)
        lj_ref = LennardJonesCut(1.0, 1.0, cutoff=2.5, shift=False)
        system_ref = AtomSystem(np.array([[5.0, 5, 5], [6.1, 5, 5]]), box)
        e_ref = lj_ref.energy_only(system_ref, nlist)
        assert e_mixed == pytest.approx(2.0 * e_ref)

    def test_epsilon_sigma_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LennardJonesCut(epsilon=np.array([1.0, 2.0]), sigma=np.array([1.0]))
