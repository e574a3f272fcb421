"""Tests for the Hookean granular contact potential with friction history."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList
from repro.md.potentials.granular import ContactHistory, HookeHistory


def _touching_pair(overlap=0.1, v_rel=None, omega=None):
    """Two unit-diameter grains overlapping by ``overlap`` along x."""
    box = Box([20.0, 20.0, 20.0], periodic=[True, True, False])
    positions = np.array([[10.0, 10, 5], [11.0 - overlap, 10, 5]])
    system = AtomSystem(positions, box, radii=0.5)
    if v_rel is not None:
        system.velocities[0] = v_rel
    if omega is not None:
        system.omega[:] = omega
    return system


def _compute(system, potential):
    nlist = NeighborList(potential.cutoff, 0.1, full=True)
    nlist.build(system)
    system.forces[:] = 0.0
    system.torques[:] = 0.0
    return potential.compute(system, nlist)


class TestNormalContact:
    def test_overlapping_grains_repel(self):
        system = _touching_pair(overlap=0.05)
        pot = HookeHistory(k_n=1000.0, gamma_n=0.0)
        _compute(system, pot)
        assert system.forces[0, 0] < 0  # pushed apart along -x
        assert system.forces[1, 0] > 0

    def test_spring_force_magnitude(self):
        overlap = 0.04
        system = _touching_pair(overlap=overlap)
        pot = HookeHistory(k_n=1000.0, gamma_n=0.0)
        _compute(system, pot)
        assert abs(system.forces[0, 0]) == pytest.approx(1000.0 * overlap)

    def test_separated_grains_no_force(self):
        box = Box([20, 20, 20], periodic=[True, True, False])
        system = AtomSystem(
            np.array([[5.0, 5, 5], [6.5, 5, 5]]), box, radii=0.5
        )
        pot = HookeHistory()
        result = _compute(system, pot)
        assert np.allclose(system.forces, 0.0)
        assert result.energy == 0.0

    def test_normal_damping_opposes_approach(self):
        system = _touching_pair(overlap=0.001, v_rel=[1.0, 0.0, 0.0])
        pot = HookeHistory(k_n=0.0, gamma_n=10.0, gamma_t=0.0)
        _compute(system, pot)
        assert system.forces[0, 0] < 0  # damping resists closing velocity

    def test_momentum_conserved(self):
        system = _touching_pair(overlap=0.05, v_rel=[0.3, 0.2, -0.1])
        _compute(system, HookeHistory())
        assert np.allclose(system.forces.sum(axis=0), 0.0, atol=1e-10)

    def test_requires_granular_system(self):
        box = Box([10, 10, 10])
        system = AtomSystem(np.ones((2, 3)), box)  # no radii
        nlist = NeighborList(1.0, 0.1, full=True)
        nlist.build(system)
        with pytest.raises(ValueError):
            HookeHistory().compute(system, nlist)

    def test_interactions_counted_full_list(self):
        """Newton-off accounting: both pair directions count as work."""
        system = _touching_pair(overlap=0.05)
        result = _compute(system, HookeHistory())
        assert result.interactions == 2


class TestTangentialHistory:
    def test_history_accumulates_under_shear(self):
        pot = HookeHistory(k_n=1000.0, gamma_n=0.0, gamma_t=0.0, mu=100.0, dt=0.01)
        system = _touching_pair(overlap=0.05, v_rel=[0.0, 1.0, 0.0])
        _compute(system, pot)
        f_t_1 = system.forces[0, 1]
        _compute(system, pot)  # second step: history has grown
        f_t_2 = system.forces[0, 1]
        assert f_t_1 < 0  # friction opposes the sliding direction
        assert abs(f_t_2) > abs(f_t_1)

    def test_coulomb_cap_limits_friction(self):
        pot = HookeHistory(k_n=1000.0, gamma_n=0.0, gamma_t=0.0, mu=0.2, dt=0.1)
        system = _touching_pair(overlap=0.05, v_rel=[0.0, 5.0, 0.0])
        for _ in range(30):
            _compute(system, pot)
        f_n = 1000.0 * 0.05
        f_t = np.linalg.norm(system.forces[0, [1, 2]])
        assert f_t <= 0.2 * f_n * (1.0 + 1e-9)

    def test_history_cleared_when_contact_breaks(self):
        pot = HookeHistory(dt=0.01)
        system = _touching_pair(overlap=0.05, v_rel=[0.0, 1.0, 0.0])
        _compute(system, pot)
        assert pot.active_contacts == 1
        system.positions[1, 0] = 15.0  # separate far beyond the cutoff
        _compute(system, pot)
        assert pot.active_contacts == 0

    def test_tangential_force_produces_torque(self):
        pot = HookeHistory(k_n=1000.0, gamma_n=0.0, mu=100.0, dt=0.01)
        system = _touching_pair(overlap=0.05, v_rel=[0.0, 1.0, 0.0])
        _compute(system, pot)
        assert not np.allclose(system.torques, 0.0)

    def test_energy_is_dissipated_in_dynamics(self):
        """A sheared contact with damping loses kinetic energy."""
        from repro.md.integrators import VelocityVerletNVE

        pot = HookeHistory(k_n=1000.0, gamma_n=20.0, dt=1e-3)
        system = _touching_pair(overlap=0.02, v_rel=[0.0, 0.5, 0.0])
        nlist = NeighborList(pot.cutoff, 0.1, full=True)
        nlist.build(system)
        integrator = VelocityVerletNVE()
        result = pot.compute(system, nlist)
        total0 = system.kinetic_energy() + result.energy
        for _ in range(200):
            integrator.initial_integrate(system, 1e-3)
            nlist.ensure(system)
            system.forces[:] = 0.0
            system.torques[:] = 0.0
            result = pot.compute(system, nlist)
            integrator.final_integrate(system, 1e-3)
        total1 = system.kinetic_energy() + result.energy
        assert total1 < total0


class TestContactHistoryStore:
    def test_new_contacts_start_at_zero(self):
        store = ContactHistory()
        values = store.sync(np.array([3, 7], dtype=np.int64))
        assert np.allclose(values, 0.0)
        assert len(store) == 2

    def test_values_survive_reordering(self):
        store = ContactHistory()
        store.sync(np.array([3, 7], dtype=np.int64))
        store.store(np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        values = store.sync(np.array([7, 3], dtype=np.int64))
        assert np.allclose(values[0], [0, 2.0, 0])
        assert np.allclose(values[1], [1.0, 0, 0])

    def test_departed_contacts_dropped(self):
        store = ContactHistory()
        store.sync(np.array([3, 7], dtype=np.int64))
        store.store(np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        values = store.sync(np.array([7, 9], dtype=np.int64))
        assert np.allclose(values[0], [0, 2.0, 0])
        assert np.allclose(values[1], 0.0)

    def test_empty_sync(self):
        store = ContactHistory()
        values = store.sync(np.empty(0, dtype=np.int64))
        assert values.shape == (0, 3)


class TestFullListGuard:
    """A full-list potential handed a half list used to return half the
    bonds without complaint (Tersoff on perfect diamond: -2.41 eV/atom
    and 0.78 eV/A of spurious force); now it is a named error."""

    @pytest.mark.parametrize("backend", ["numpy_ref", "numpy_fast", "compiled"])
    def test_half_list_is_refused_by_name(self, backend):
        from repro.md.lattice import diamond_positions
        from repro.md.potentials.tersoff import Tersoff

        silicon = AtomSystem(*diamond_positions(2, 5.431))
        cases = [(Tersoff(), silicon, 3.0), (HookeHistory(), _touching_pair(), 1.0)]
        for potential, system, cutoff in cases:
            assert potential.needs_full_list
            potential.backend = backend
            half = NeighborList(cutoff, 0.5)
            half.build(system)
            with pytest.raises(ValueError) as refused:
                potential.compute(system, half)
            assert type(potential).__name__ in str(refused.value)
            assert "NeighborList(full=True)" in str(refused.value)
            assert np.all(system.forces == 0.0)
