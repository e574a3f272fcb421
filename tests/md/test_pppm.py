"""Tests for the PPPM mesh Ewald solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import RunConfig
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import CompiledBackend, get_backend
from repro.md.kernels.compiled import compiled_available
from repro.md.kspace.ewald import EwaldSummation
from repro.md.kspace.pppm import (
    PPPM,
    bspline_weights,
    interpolate_fields,
    mesh_stencil,
    spread_charges,
)
from repro.md.precision import PRECISIONS, policy_for
from repro.suite import get_benchmark


class TestBsplineWeights:
    @given(
        frac=st.floats(0.0, 31.999, allow_nan=False),
        order=st.integers(2, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, frac, order):
        """Property: assignment weights always sum to exactly 1."""
        nodes, weights = bspline_weights(np.array([frac]), order)
        assert weights.shape == (1, order)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @given(frac=st.floats(0.0, 31.999), order=st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_weights_non_negative(self, frac, order):
        _, weights = bspline_weights(np.array([frac]), order)
        assert np.all(weights >= -1e-14)

    def test_nodes_bracket_particle(self):
        nodes, weights = bspline_weights(np.array([10.3]), 5)
        # The five nearest integers to 10.3 are 8..12.
        assert nodes[0].tolist() == [8, 9, 10, 11, 12]

    def test_particle_on_node_order2(self):
        nodes, weights = bspline_weights(np.array([5.0]), 2)
        # Linear (cloud-in-cell) assignment: all weight on the node.
        total_on_5 = weights[0][nodes[0] == 5].sum()
        assert total_on_5 == pytest.approx(1.0)

    def test_vectorized_over_particles(self):
        nodes, weights = bspline_weights(np.array([1.2, 7.9, 15.5]), 5)
        assert nodes.shape == (3, 5)
        assert np.allclose(weights.sum(axis=1), 1.0)


def _random_system(seed=3, n=50):
    rng = np.random.default_rng(seed)
    box = Box([9.0, 9.0, 9.0])
    q = rng.normal(size=n)
    q -= q.mean()
    return AtomSystem(rng.uniform(0, 9, (n, 3)), box, charges=q)


class TestAgainstEwald:
    #: Kernel backend whose mesh hooks every solver here may take.
    backend = "numpy_fast"

    def _pppm(self, **kwargs):
        pppm = PPPM(**kwargs)
        pppm.backend = get_backend(self.backend)
        return pppm

    def test_energy_converges_to_ewald(self):
        system = _random_system()
        reference = EwaldSummation(1.0, accuracy=1e-10).energy_only(system)
        errors = []
        for grid in ((16, 16, 16), (32, 32, 32)):
            pppm = self._pppm(accuracy=1e-4, cutoff=3.0, alpha=1.0, grid=grid)
            errors.append(abs(pppm.energy_only(system) - reference) / abs(reference))
        assert errors[1] < errors[0] < 1e-2

    def test_forces_converge_to_ewald(self):
        system = _random_system(seed=5)
        system.forces[:] = 0.0
        EwaldSummation(1.0, accuracy=1e-10).compute(system)
        reference = system.forces.copy()
        rms_ref = np.sqrt(np.mean(reference**2))
        system.forces[:] = 0.0
        pppm = self._pppm(accuracy=1e-4, cutoff=3.0, alpha=1.0, grid=(32, 32, 32))
        pppm.compute(system)
        rel = np.sqrt(np.mean((system.forces - reference) ** 2)) / rms_ref
        assert rel < 1e-3

    def test_accuracy_driven_setup_meets_threshold(self):
        """Let PPPM pick alpha + grid from the threshold, then verify the
        realized force error against a tight Ewald reference."""
        system = _random_system(seed=7)
        system.forces[:] = 0.0
        pppm = self._pppm(accuracy=1e-4, cutoff=3.0)
        pppm.setup(system)
        pppm.compute(system)
        mesh_forces = system.forces.copy()
        system.forces[:] = 0.0
        EwaldSummation(pppm.alpha, accuracy=1e-12).compute(system)
        rms_err = np.sqrt(np.mean((mesh_forces - system.forces) ** 2))
        # LAMMPS' absolute accuracy: threshold * two-charge reference.
        assert rms_err < 1e-4 * 10.0  # generous two-charge normalization

    def test_virial_tracks_ewald(self):
        system = _random_system(seed=11)
        ref = EwaldSummation(1.0, accuracy=1e-10)
        system.forces[:] = 0.0
        ref_virial = ref.compute(system).virial
        system.forces[:] = 0.0
        pm = self._pppm(accuracy=1e-4, cutoff=3.0, alpha=1.0, grid=(32, 32, 32))
        assert pm.compute(system).virial == pytest.approx(ref_virial, rel=1e-2)


class TestAgainstEwaldCompiled(TestAgainstEwald):
    """The same checks through the native routes of ``compiled``
    (``numpy_fast`` with a warning where no C compiler builds)."""

    backend = "compiled"


class TestBehaviour:
    def test_grid_points_property(self):
        system = _random_system()
        pppm = PPPM(accuracy=1e-4, cutoff=3.0, grid=(8, 10, 12))
        assert pppm.grid_points == 0  # before setup
        pppm.setup(system)
        assert pppm.grid_points == 8 * 10 * 12

    def test_interactions_reported_as_grid_points(self):
        system = _random_system()
        pppm = PPPM(accuracy=1e-4, cutoff=3.0, alpha=1.0, grid=(16, 16, 16))
        result = pppm.compute(system)
        assert result.interactions == 16**3

    def test_exclusions_add_no_grid_points(self):
        """The excluded-pair correction is not mesh work: the count is
        the mesh alone, whatever the exclusions."""
        system = _random_system()
        exclusions = np.array([[0, 1], [2, 3], [4, 9]])
        pppm = PPPM(
            accuracy=1e-4, cutoff=3.0, alpha=1.0, grid=(16, 16, 16),
            exclusions=exclusions,
        )
        result = pppm.compute(system)
        assert result.interactions == pppm.grid_points == 16**3

    def test_a_rhodo_run_counts_the_mesh_points_it_evaluated(self):
        sim = get_benchmark("rhodo").build(300)
        sim.setup()  # an uncounted evaluation
        meshes = []
        compute = sim.kspace.compute

        def recording(system):
            result = compute(system)
            meshes.append(sim.kspace.grid_points)
            return result

        sim.kspace.compute = recording
        sim.run(5)
        assert len(meshes) == 5
        assert sim.counts.kspace_grid_points == sum(meshes) > 0

    def test_tighter_accuracy_selects_larger_grid(self):
        system = _random_system()
        loose = PPPM(accuracy=1e-4, cutoff=3.0)
        loose.setup(system)
        tight = PPPM(accuracy=1e-6, cutoff=3.0)
        tight.setup(system)
        assert tight.grid_points > loose.grid_points

    def test_setup_refreshes_on_box_change(self):
        system = _random_system()
        pppm = PPPM(accuracy=1e-4, cutoff=3.0)
        pppm.compute(system)
        first = pppm.grid
        system.box.scale(1.5)
        system.positions *= 1.5
        pppm.compute(system)
        assert pppm.grid != first or pppm.grid_points > 0

    def test_charged_system_rejected(self):
        box = Box([8, 8, 8])
        system = AtomSystem(np.ones((2, 3)), box, charges=[1.0, 0.0])
        with pytest.raises(ValueError, match="charge-neutral"):
            PPPM(accuracy=1e-4, cutoff=3.0).compute(system)

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            PPPM(accuracy=0.0, cutoff=3.0)

    def test_exclusion_correction_applied(self):
        box = Box([20.0, 20.0, 20.0])
        system = AtomSystem(
            np.array([[9.5, 10, 10], [10.5, 10, 10]]), box, charges=[1.0, -1.0]
        )
        pppm = PPPM(
            accuracy=1e-5,
            cutoff=4.0,
            alpha=0.8,
            grid=(36, 36, 36),
            exclusions=np.array([[0, 1]]),
        )
        energy = pppm.energy_only(system)
        assert abs(energy) < 0.02  # dimer self-interaction removed


# ---------------------------------------------------------------------------
# The compiled backend's spread and gather vs the numpy body, bit for bit
# ---------------------------------------------------------------------------
_GRID = (8, 10, 12)


def _edge_case_system(n=40, seed=17):
    """Charges over a box of one mesh spacing per unit length (so grid
    coordinates are positions): an atom exactly on a node, one at the
    origin, one an ulp below the far corner, and unwrapped atoms on
    both sides of the box (``frac < 0`` and ``frac >= n``), as atoms
    are between two wraps."""
    rng = np.random.default_rng(seed)
    box = Box([float(g) for g in _GRID])
    charges = rng.normal(size=n)
    charges -= charges.mean()
    system = AtomSystem(rng.uniform(0.0, 1.0, (n, 3)) * box.lengths, box, charges=charges)
    system.positions[:5] = [
        [3.0, 4.0, 5.0],
        [0.0, 0.0, 0.0],
        np.nextafter(box.lengths, 0.0),
        [-0.7, -3.2, -12.5],
        box.lengths + [1.3, 0.0, 12.0],
    ]
    return system


def _dimer():
    """One atom pair (the LAMMPS two-charge reference)."""
    box = Box([float(g) for g in _GRID])
    return AtomSystem(
        np.array([[3.5, 5.0, 6.0], [4.5, 5.0, 6.0]]), box, charges=[1.0, -1.0]
    )


def _solver(order, policy, backend):
    pppm = PPPM(accuracy=1e-4, cutoff=3.0, alpha=0.9, grid=_GRID, order=order)
    pppm.policy = policy
    pppm.backend = backend
    return pppm


_ORDERS = range(1, 8)  # every order select_grid has coefficients for


@pytest.mark.skipif(not compiled_available(), reason="no compiled provider")
class TestNativeMeshKernels:
    @pytest.fixture
    def backend(self):
        return CompiledBackend()

    @pytest.mark.parametrize("mode", PRECISIONS)
    @pytest.mark.parametrize("order", _ORDERS)
    def test_mesh_and_efield_are_the_body(self, backend, order, mode):
        policy = policy_for(mode)
        backend.set_policy(policy)
        ct, acc = policy.compute_dtype, policy.accumulate_dtype
        system = _edge_case_system()
        frac = (system.positions * (np.array(_GRID) / system.box.lengths)).astype(ct)
        assert frac.min() < 0 and (frac >= _GRID).any() and frac[0].tolist() == [3, 4, 5]
        charges = system.charges.astype(ct)
        stencil = mesh_stencil(frac, order, _GRID)
        body, native = np.zeros((2, *_GRID), acc)
        spread_charges(body, stencil, charges)
        assert backend.pppm_spread(native, frac, charges, order) is native
        assert native.tobytes() == body.tobytes()

        fields = list(np.random.default_rng(order).normal(size=(3, *_GRID)).astype(ct))
        body, native = np.zeros(frac.shape, ct), np.full(frac.shape, np.nan, ct)
        interpolate_fields(body, stencil, fields)
        assert backend.pppm_gather(native, frac, fields, order) is native
        assert native.tobytes() == body.tobytes()

    @pytest.mark.parametrize("mode", PRECISIONS)
    @pytest.mark.parametrize("order", _ORDERS)
    @pytest.mark.parametrize("make_system", [_edge_case_system, _dimer])
    def test_forces_energy_and_virial_are_the_body(
        self, backend, order, mode, make_system
    ):
        policy = policy_for(mode)
        backend.set_policy(policy)
        results = []
        for hooks in (None, backend):
            system = make_system()
            result = _solver(order, policy, hooks).compute(system)
            results.append((system.forces.tobytes(), result.energy, result.virial))
        assert results[0] == results[1]
        assert np.isfinite(results[0][1:]).all()

    def test_each_hook_declines_before_writing(self, backend):
        system = _edge_case_system()
        frac = system.positions * (np.array(_GRID) / system.box.lengths)
        charges = system.charges
        fields = list(np.ones((3, *_GRID)))
        mesh, efield = np.zeros(_GRID), np.zeros(frac.shape)
        # An order PPPM cannot run, a strided input, a dtype mismatch.
        assert backend.pppm_spread(mesh, frac, charges, 8) is None
        assert backend.pppm_gather(efield, frac, fields, 8) is None
        assert backend.pppm_spread(mesh, np.asfortranarray(frac), charges, 5) is None
        assert backend.pppm_spread(mesh, frac, charges.astype(np.float32), 5) is None
        assert backend.pppm_gather(efield.astype(np.float32), frac, fields, 5) is None
        assert not mesh.any() and not efield.any()

    def test_smoke_test_demotes_a_spread_in_another_order(self):
        """Adding the same terms in atom-reversed order is equal to
        rounding, not bit for bit: the provider must not pass."""
        from repro.md.kernels.compiled import _smoke_test, resolve_provider

        provider, _ = resolve_provider()

        class Reversed:
            def __getattr__(self, name):
                return getattr(provider, name)

            def pppm_spread(self, mesh, frac, q, *rest):
                back = slice(None, None, -1)
                return provider.pppm_spread(
                    mesh, frac[back].copy(), q[back].copy(), *rest
                )

        _smoke_test(provider)  # the real provider passes
        with pytest.raises(AssertionError, match="pppm_spread"):
            _smoke_test(Reversed())


# ---------------------------------------------------------------------------
# Mesh tables from 1-D wavevectors: the meshgrid formula, bit for bit
# ---------------------------------------------------------------------------
def _meshgrid_tables(pppm, system, dtype):
    """``(green, virial_factor, kcomp)`` as PPPM built them from full
    3-D component grids — the oracle for the broadcast setup."""
    lengths = system.box.lengths
    nx, ny, nz = pppm.grid
    two_pi = 2.0 * math.pi
    kx = two_pi * np.fft.fftfreq(nx, d=1.0 / nx) / lengths[0]
    ky = two_pi * np.fft.fftfreq(ny, d=1.0 / ny) / lengths[1]
    kz = two_pi * np.fft.fftfreq(nz, d=1.0 / nz) / lengths[2]
    kxg, kyg, kzg = np.meshgrid(kx, ky, kz, indexing="ij")
    k2 = kxg**2 + kyg**2 + kzg**2
    with np.errstate(divide="ignore", invalid="ignore"):
        green = (
            4.0
            * math.pi
            * pppm.coulomb_constant
            / system.box.volume
            * np.exp(-k2 / (4.0 * pppm.alpha**2))
            / k2
        )
    green[0, 0, 0] = 0.0
    hx, hy, hz = lengths / np.array([nx, ny, nz])
    u = np.ones_like(green)
    for kc, h in ((kxg, hx), (kyg, hy), (kzg, hz)):
        x = 0.5 * kc * h
        s = np.where(np.abs(x) > 1e-12, np.sin(x) / np.where(x == 0, 1.0, x), 1.0)
        u = u * s**pppm.order
    green = green / np.maximum(u * u, 1e-10)
    kcomp = [kc.astype(dtype) for kc in (kxg, kyg, kzg)]
    k2 = kcomp[0] ** 2 + kcomp[1] ** 2 + kcomp[2] ** 2
    return green, 1.0 - k2 / (2.0 * pppm.alpha**2), kcomp


class TestBroadcastSetup:
    def test_tables_equal_the_meshgrid_formula_after_npt_steps(self):
        sim = get_benchmark("rhodo").build(300)
        start = sim.system.box.lengths.copy()
        sim.run(RunConfig(steps=4))
        system, pppm = sim.system, sim.kspace
        assert not np.array_equal(system.box.lengths, start)  # the barostat moved it
        pppm.setup(system)
        phi_hat = np.fft.fftn(np.random.default_rng(5).normal(size=pppm.grid))
        for dtype in (np.float64, np.float32):
            green, factor, kcomp = _meshgrid_tables(pppm, system, dtype)
            assert pppm._green.tobytes() == green.tobytes()
            assert pppm._virial_factor(np.dtype(dtype)).tobytes() == factor.tobytes()
            # The ik products the inverse FFTs see, from the 1-D components.
            phi = (green.astype(dtype) * phi_hat).astype(np.result_type(dtype, 1j))
            axes = (np.s_[:, None, None], np.s_[None, :, None], np.s_[None, None, :])
            for grid_kc, kc, axis in zip(kcomp, pppm._kcomp, axes):
                broadcast = 1j * kc.astype(dtype)[axis] * phi
                assert broadcast.tobytes() == (1j * grid_kc * phi).tobytes()
        sim.close()
