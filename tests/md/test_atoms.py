"""Tests for the particle store and topology."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem, Topology
from repro.md.box import Box
from repro.suite import get_benchmark
from tests.conftest import assert_same_arrays


@pytest.fixture
def box():
    return Box([10.0, 10.0, 10.0])


class TestTopology:
    def test_empty_by_default(self):
        topo = Topology()
        assert topo.n_bonds == 0
        assert topo.n_angles == 0

    def test_bond_types_default_to_zero(self):
        topo = Topology(bonds=np.array([[0, 1], [1, 2]]))
        assert topo.bond_types.tolist() == [0, 0]

    def test_mismatched_bond_types_rejected(self):
        with pytest.raises(ValueError):
            Topology(bonds=np.array([[0, 1]]), bond_types=np.array([0, 1]))

    def test_validate_catches_out_of_range(self):
        topo = Topology(bonds=np.array([[0, 5]]))
        with pytest.raises(ValueError):
            topo.validate(3)

    def test_validate_accepts_valid(self):
        topo = Topology(bonds=np.array([[0, 1]]), angles=np.array([[0, 1, 2]]))
        topo.validate(3)


class TestConstruction:
    def test_defaults(self, box):
        system = AtomSystem(np.zeros((3, 3)) + 1.0, box)
        assert system.n_atoms == 3
        assert np.allclose(system.masses, 1.0)
        assert np.allclose(system.charges, 0.0)
        assert system.types.tolist() == [0, 0, 0]
        assert not system.is_granular

    def test_positions_wrapped_on_construction(self, box):
        system = AtomSystem(np.array([[12.0, -3.0, 5.0]]), box)
        assert np.allclose(system.positions, [[2.0, 7.0, 5.0]])
        assert system.images.tolist() == [[1, -1, 0]]

    def test_empty_rejected(self, box):
        with pytest.raises(ValueError):
            AtomSystem(np.empty((0, 3)), box)

    def test_non_positive_mass_rejected(self, box):
        with pytest.raises(ValueError):
            AtomSystem(np.zeros((2, 3)), box, masses=[1.0, 0.0])

    def test_scalar_mass_broadcast(self, box):
        system = AtomSystem(np.zeros((4, 3)), box, masses=2.5)
        assert np.allclose(system.masses, 2.5)

    def test_granular_gets_angular_state(self, box):
        system = AtomSystem(np.zeros((2, 3)) + 1, box, radii=0.5)
        assert system.is_granular
        assert system.omega is not None and system.omega.shape == (2, 3)
        assert system.torques is not None

    def test_topology_validated(self, box):
        with pytest.raises(ValueError):
            AtomSystem(
                np.zeros((2, 3)), box, topology=Topology(bonds=np.array([[0, 7]]))
            )


class TestThermodynamics:
    def test_kinetic_energy(self, box):
        system = AtomSystem(np.zeros((2, 3)), box, masses=[1.0, 2.0])
        system.velocities = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        assert system.kinetic_energy() == pytest.approx(0.5 * 1 + 0.5 * 2 * 4)

    def test_temperature_of_still_system_is_zero(self, box):
        system = AtomSystem(np.zeros((10, 3)), box)
        assert system.temperature() == 0.0

    def test_seed_velocities_hits_target(self, box, rng=np.random.default_rng(1)):
        system = AtomSystem(rng.uniform(0, 10, (200, 3)), box)
        system.seed_velocities(1.44, rng)
        assert system.temperature() == pytest.approx(1.44, rel=1e-10)

    def test_seed_velocities_zero_momentum(self, box):
        rng = np.random.default_rng(2)
        system = AtomSystem(rng.uniform(0, 10, (50, 3)), box, masses=rng.uniform(1, 3, 50))
        system.seed_velocities(2.0, rng)
        assert np.allclose(system.momentum(), 0.0, atol=1e-10)

    def test_constraints_reduce_dof(self, box):
        rng = np.random.default_rng(3)
        system = AtomSystem(rng.uniform(0, 10, (30, 3)), box)
        system.seed_velocities(1.0, rng)
        assert system.temperature(n_constraints=10) > system.temperature()

    def test_density(self, box):
        system = AtomSystem(np.zeros((100, 3)), box)
        assert system.density() == pytest.approx(0.1)

    def test_zero_momentum(self, box):
        rng = np.random.default_rng(4)
        system = AtomSystem(rng.uniform(0, 10, (20, 3)), box)
        system.velocities = rng.normal(size=(20, 3)) + 1.0
        system.zero_momentum()
        assert np.allclose(system.momentum(), 0.0, atol=1e-12)


class TestMutation:
    def test_wrap_updates_images(self, box):
        system = AtomSystem(np.array([[5.0, 5.0, 5.0]]), box)
        system.positions[0, 0] = 13.0
        system.wrap()
        assert np.allclose(system.positions[0], [3.0, 5.0, 5.0])
        assert system.images[0].tolist() == [1, 0, 0]

    def test_unwrapped_positions(self, box):
        system = AtomSystem(np.array([[5.0, 5.0, 5.0]]), box)
        system.positions[0, 0] = 13.0
        system.wrap()
        assert np.allclose(system.unwrapped_positions()[0], [13.0, 5.0, 5.0])

    def test_copy_is_deep(self, box):
        system = AtomSystem(np.ones((2, 3)), box, charges=[1.0, -1.0])
        clone = system.copy()
        clone.positions[0, 0] = 9.0
        clone.charges[0] = 5.0
        assert system.positions[0, 0] == pytest.approx(1.0)
        assert system.charges[0] == pytest.approx(1.0)

    def test_copy_keeps_every_row(self):
        """A running chute bed (torques, images, topology-free granular
        state) copies bit for bit, row by row."""
        sim = get_benchmark("chute").build(400)
        sim.run(30)
        assert np.abs(sim.system.torques).max() > 0
        assert_same_arrays(sim.system.copy(), sim.system)
