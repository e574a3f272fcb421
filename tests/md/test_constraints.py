"""Tests for the SHAKE/RATTLE constraint solver."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.constraints import ShakeConstraints
from repro.md.kernels.compiled import compiled_available
from repro.suite import get_benchmark

#: What an unconverged SHAKE step says: the cap, the worst cluster's
#: atoms and its residual.
_UNCONVERGED = (
    r"SHAKE failed to converge in \d+ iterations: cluster of atoms "
    r"\[\d+(, \d+)*\] still has a relative residual"
)


def _water_like(offset=(0.0, 0.0, 0.0)):
    """A rigid triangle: two 1.0 bonds plus a 1.633 H-H constraint."""
    box = Box([20.0, 20.0, 20.0])
    o = np.array([10.0, 10.0, 10.0]) + offset
    half_hh = 1.633 / 2.0
    drop = np.sqrt(1.0 - half_hh**2)  # exact geometry from the distances
    positions = np.array(
        [o, o + [half_hh, drop, 0.0], o + [-half_hh, drop, 0.0]]
    )
    system = AtomSystem(positions, box, masses=[16.0, 1.0, 1.0])
    pairs = np.array([[0, 1], [0, 2], [1, 2]])
    distances = np.array([1.0, 1.0, 1.633])
    return system, ShakeConstraints(pairs, distances)


_HALF_ANGLE = np.radians(104.52) / 2.0
_WATER = 10.0 + np.array(
    [[0.0, 0, 0],
     [np.sin(_HALF_ANGLE), np.cos(_HALF_ANGLE), 0],
     [-np.sin(_HALF_ANGLE), np.cos(_HALF_ANGLE), 0]]
)
_TETRAHEDRAL = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1]]) / np.sqrt(3.0)
#: One cluster of each shape LAMMPS has a routine for: ``(positions,
#: masses, constrained pairs)``, every cluster at its target geometry.
_SHAPES = {
    "bond": ([[10.0, 10, 10], [11.09, 10, 10]], [12.011, 1.008], [[0, 1]]),
    "angle": (_WATER, [15.9994, 1.008, 1.008], [[0, 1], [0, 2]]),
    "water": (_WATER, [15.9994, 1.008, 1.008], [[0, 1], [0, 2], [1, 2]]),
    "star": (
        np.vstack([[10.0, 10, 10], 10.0 + 1.09 * _TETRAHEDRAL]),
        [12.011, 1.008, 1.008, 1.008],
        [[0, 1], [0, 2], [0, 3]],
    ),
}


def _cluster(shape):
    positions, masses, pairs = _SHAPES[shape]
    positions = np.array(positions, dtype=float)
    pairs = np.array(pairs)
    distances = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
    system = AtomSystem(positions, Box([20.0, 20.0, 20.0]), masses=masses)
    return system, ShakeConstraints(pairs, distances)


def _kicked(shape, seed=41):
    """A cluster, its pre-kick reference positions, and a 0.05 Å kick."""
    system, shake = _cluster(shape)
    rng = np.random.default_rng(seed)
    system.velocities = rng.normal(size=system.velocities.shape)
    reference = system.positions.copy()
    system.positions += rng.normal(scale=0.05, size=reference.shape)
    return system, shake, reference


def _radial(system, shake):
    i, j = shake.pairs[:, 0], shake.pairs[:, 1]
    dr = system.positions[i] - system.positions[j]
    return np.einsum("ij,ij->i", dr, system.velocities[i] - system.velocities[j])


class TestConstruction:
    def test_counts(self):
        _, shake = _water_like()
        assert shake.n_constraints == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ShakeConstraints(np.array([[0, 1]]), np.array([1.0, 2.0]))

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            ShakeConstraints(np.array([[0, 1]]), np.array([0.0]))


class TestShake:
    def test_perturbed_positions_projected_back(self):
        system, shake = _water_like()
        rng = np.random.default_rng(17)
        reference = system.positions.copy()
        system.positions += rng.normal(0, 0.05, system.positions.shape)
        shake.apply_positions(system, reference, dt=0.01)
        assert shake.max_violation(system) < 1e-7

    def test_velocity_correction_consistent_with_positions(self):
        system, shake = _water_like()
        reference = system.positions.copy()
        system.positions += 0.03
        system.positions[1, 0] += 0.04
        before = system.velocities.copy()
        shake.apply_positions(system, reference, dt=0.01)
        # Velocities absorb the position correction / dt.
        assert not np.allclose(system.velocities, before)

    def test_already_satisfied_is_noop(self):
        system, shake = _water_like()
        reference = system.positions.copy()
        positions_before = system.positions.copy()
        shake.apply_positions(system, reference, dt=0.01)
        assert np.allclose(system.positions, positions_before, atol=1e-12)
        assert shake.last_iterations == 0

    def test_multiple_independent_clusters(self):
        box = Box([20.0, 20.0, 20.0])
        s1, _ = _water_like()
        s2, _ = _water_like(offset=(5.0, 0.0, 0.0))
        positions = np.vstack([s1.positions, s2.positions])
        system = AtomSystem(positions, box, masses=[16, 1, 1, 16, 1, 1])
        pairs = np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        distances = np.array([1.0, 1.0, 1.633] * 2)
        shake = ShakeConstraints(pairs, distances)
        reference = system.positions.copy()
        system.positions += np.random.default_rng(3).normal(0, 0.04, (6, 3))
        shake.apply_positions(system, reference, dt=0.01)
        assert shake.max_violation(system) < 1e-7


class TestRattle:
    def test_radial_velocities_removed(self):
        system, shake = _water_like()
        rng = np.random.default_rng(23)
        system.velocities = rng.normal(0, 1.0, system.velocities.shape)
        shake.apply_velocities(system)
        i, j = shake.pairs[:, 0], shake.pairs[:, 1]
        dr = system.positions[i] - system.positions[j]
        dv = system.velocities[i] - system.velocities[j]
        radial = np.einsum("ij,ij->i", dr, dv)
        assert np.all(np.abs(radial) < 1e-6)

    def test_momentum_preserved(self):
        system, shake = _water_like()
        rng = np.random.default_rng(29)
        system.velocities = rng.normal(0, 1.0, system.velocities.shape)
        p0 = system.momentum()
        shake.apply_velocities(system)
        assert np.allclose(system.momentum(), p0, atol=1e-10)


class TestClusterSolver:
    """Per-cluster solves over each shape the proxy systems can hold."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_kicked_cluster_converges_within_eight_newton_steps(self, shape):
        system, shake, reference = _kicked(shape)
        shake.apply_positions(system, reference, dt=0.01)
        assert 1 <= shake.last_iterations <= 8
        i, j = shake.pairs[:, 0], shake.pairs[:, 1]
        dr = system.positions[i] - system.positions[j]
        d2 = shake.distances**2
        assert np.all(
            np.abs(np.einsum("ij,ij->i", dr, dr) - d2) <= shake.tolerance * d2
        )

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_atoms_move_along_their_reference_bonds_over_their_mass(self, shape):
        """``m_a (x_a - x'_a) = -sum_e sign(a, e) g_e s_e``: one
        multiplier per constraint explains every atom's displacement."""
        system, shake, reference = _kicked(shape)
        kicked = system.positions.copy()
        shake.apply_positions(system, reference, dt=0.01)
        n, k = system.n_atoms, shake.n_constraints
        basis = np.zeros((n, 3, k))
        for e, (a, b) in enumerate(shake.pairs):
            bond = reference[a] - reference[b]
            basis[a, :, e] -= bond
            basis[b, :, e] += bond
        basis = basis.reshape(3 * n, k)
        moved = (system.masses[:, None] * (system.positions - kicked)).reshape(-1)
        g = np.linalg.lstsq(basis, moved, rcond=None)[0]
        assert np.abs(g).max() > 1e-4
        assert np.allclose(basis @ g, moved, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_corrections_conserve_momentum(self, shape):
        system, shake, reference = _kicked(shape)
        masses = system.masses
        center, p0 = masses @ system.positions, system.momentum()
        shake.apply_positions(system, reference, dt=0.01)
        assert np.allclose(masses @ system.positions, center, rtol=0.0, atol=1e-12)
        assert np.allclose(system.momentum(), p0, rtol=0.0, atol=1e-10)
        p1 = system.momentum()
        shake.apply_velocities(system)
        assert np.allclose(system.momentum(), p1, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_rattle_is_exact_after_one_solve(self, shape):
        system, shake, _ = _kicked(shape)
        system.positions[...] = _cluster(shape)[0].positions
        assert np.abs(_radial(system, shake)).max() > 0.1
        shake.apply_velocities(system)
        assert np.abs(_radial(system, shake)).max() <= 1e-12

    def test_collinear_triangle_is_refused_by_name(self):
        """A bond (atoms 0-1) beside a straight H-C-H-like triangle
        (atoms 2-4): the triangle's constraint system is singular, and
        the error names its atoms whichever solver meets it."""
        positions = np.array(
            [[2.0, 2, 2], [3, 2, 2], [10, 10, 10], [11, 10, 10], [12, 10, 10]]
        )
        pairs = [[0, 1], [2, 3], [3, 4], [2, 4]]
        shake = ShakeConstraints(pairs, [1.0, 1.0, 1.0, 2.0])
        system = AtomSystem(positions.copy(), Box([20.0] * 3), masses=[1.0] * 5)
        with pytest.raises(RuntimeError, match=r"atoms \[2, 3, 4\] has a singular"):
            shake.apply_velocities(system)
        system.positions += np.random.default_rng(5).normal(scale=0.05, size=(5, 3))
        with pytest.raises(RuntimeError, match=r"atoms \[2, 3, 4\] has a singular"):
            shake.apply_positions(system, positions, dt=0.01)

    def test_unconverged_cluster_is_named_with_its_residual(self):
        """A bond (atoms 0-1) beside a water triangle (atoms 2-4) kicked
        far off its geometry: one Newton step cannot project it back,
        and the error names the triangle and how far it still is."""
        water, masses, _ = _SHAPES["water"]
        positions = np.vstack([[[2.0, 2, 2], [3, 2, 2]], water])
        pairs = np.array([[0, 1], [2, 3], [2, 4], [3, 4]])
        distances = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
        shake = ShakeConstraints(pairs, distances, max_iterations=1)
        system = AtomSystem(
            positions.copy(), Box([20.0] * 3), masses=[12.0, 1.0, *masses]
        )
        system.positions[2:] += np.random.default_rng(3).normal(scale=0.3, size=(3, 3))
        with pytest.raises(RuntimeError, match=_UNCONVERGED) as failure:
            shake.apply_positions(system, positions, dt=0.01)
        assert "in 1 iterations: cluster of atoms [2, 3, 4]" in str(failure.value)
        assert "(tolerance 1e-08)" in str(failure.value)

    def test_float32_storage_is_solved_in_float64_and_rounded_once(self):
        system, shake, reference = _kicked("water")
        system.cast_storage(np.float32)
        twin = system.copy()
        twin.cast_storage(np.float64)  # exact: the same values in float64
        twin_shake = _cluster("water")[1]
        shake.apply_positions(system, reference, dt=0.01)
        twin_shake.apply_positions(twin, reference, dt=0.01)
        assert system.positions.dtype == system.velocities.dtype == np.float32
        assert np.array_equal(system.positions, twin.positions.astype(np.float32))
        assert np.array_equal(system.velocities, twin.velocities.astype(np.float32))
        twin = system.copy()
        twin.cast_storage(np.float64)
        shake.apply_velocities(system)
        twin_shake.apply_velocities(twin)
        assert system.velocities.dtype == np.float32
        assert np.array_equal(system.velocities, twin.velocities.astype(np.float32))

    def test_rhodo_1k_takes_at_most_eight_newton_steps_per_step(self):
        sim = get_benchmark("rhodo").build(1000)
        sim.run(10)
        assert sim.counts.shake_iterations <= 8 * sim.counts.timesteps
        assert sim.constraints.max_violation(sim.system) < 1e-3


_BACKENDS = [
    "numpy_fast",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not compiled_available(), reason="no compiled provider"
    )),
]


class TestRhodoSeeds:
    """Seed 704 builds a rhodo_1k start whose forces blow up (max |F|
    ~380 -> ~5 000 -> ~8 200 -> ~84 000 over seven steps) until SHAKE
    cannot project a cluster back; seed 703 peaks near 2 500 and
    settles.  The cause is the start, not the solver (docs/PHYSICS.md,
    "Known simplifications"): these pin that the failure is named and
    located, on every backend, and that a neighboring seed runs."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_seed_704_fails_in_shake_by_name_within_eight_steps(self, backend):
        sim = get_benchmark("rhodo").build(1000, seed=704)
        sim.set_backend(backend)
        with pytest.raises(RuntimeError, match=_UNCONVERGED):
            sim.run(8)

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_seed_703_runs_eleven_steps(self, backend):
        sim = get_benchmark("rhodo").build(1000, seed=703)
        sim.set_backend(backend)
        sim.run(11)
        assert sim.constraints.max_violation(sim.system) < 1e-3


class TestDynamicsIntegration:
    def test_constraints_hold_during_md(self):
        """Rigid water under a soft external force keeps its geometry."""
        from repro.md.integrators import VelocityVerletNVE

        system, shake = _water_like()
        rng = np.random.default_rng(31)
        system.seed_velocities(0.3, rng)
        shake.apply_velocities(system)
        integrator = VelocityVerletNVE()
        dt = 0.01
        for _ in range(200):
            reference = system.positions.copy()
            integrator.initial_integrate(system, dt)
            shake.apply_positions(system, reference, dt)
            system.forces = 0.05 * rng.normal(size=system.forces.shape)
            integrator.final_integrate(system, dt)
            shake.apply_velocities(system)
        assert shake.max_violation(system) < 1e-6
