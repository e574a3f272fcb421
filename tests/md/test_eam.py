"""Tests for the embedded-atom (EAM) many-body potential."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.lattice import eam_solid_system, fcc_positions
from repro.md.neighbor import NeighborList
from repro.md.potentials.eam import EAMAlloy, EAMParameters

from tests.conftest import BACKEND_TWINS, finite_difference_forces


@pytest.fixture
def eam():
    return EAMAlloy()


def _energy_of(positions, box, eam):
    system = AtomSystem(positions, box)
    nlist = NeighborList(eam.cutoff, 0.5)
    nlist.build(system)
    return eam.energy_only(system, nlist)


def _cohesive_energy_curve(eam, lattice_constants, coordination=12):
    """Per-atom energy of an idealized first-shell fcc environment: the
    nearest-neighbour shell at ``a / sqrt(2)``, fcc coordination 12."""
    r_nn = np.asarray(lattice_constants, dtype=float) / np.sqrt(2.0)
    f, _ = eam.density_function(r_nn)
    phi, _ = eam.pair_function(r_nn)
    F, _ = eam.embedding_function(coordination * f)
    return F + 0.5 * coordination * phi


class TestRadialFunctions:
    def test_density_positive_inside_cutoff(self, eam):
        r = np.linspace(2.0, eam.cutoff - 0.05, 50)
        f, _ = eam.density_function(r)
        assert np.all(f > 0)

    def test_smooth_truncation_value_and_slope(self, eam):
        rc = eam.cutoff
        f, df = eam.density_function(np.array([rc]))
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert df[0] == pytest.approx(0.0, abs=1e-12)
        phi, dphi = eam.pair_function(np.array([rc]))
        assert phi[0] == pytest.approx(0.0, abs=1e-12)
        assert dphi[0] == pytest.approx(0.0, abs=1e-12)

    def test_density_decreases_with_distance(self, eam):
        r = np.linspace(2.0, 4.5, 40)
        f, df = eam.density_function(r)
        assert np.all(np.diff(f) < 0)
        assert np.all(df < 0)

    def test_embedding_minimum_at_rho_e(self, eam):
        rho_e = eam.params.rho_e
        F, dF = eam.embedding_function(np.array([rho_e]))
        assert dF[0] == pytest.approx(0.0, abs=1e-12)
        assert F[0] == pytest.approx(-eam.params.E_c)

    def test_embedding_derivative_matches_finite_difference(self, eam):
        rho = np.linspace(2.0, 20.0, 30)
        _, dF = eam.embedding_function(rho)
        h = 1e-6
        Fp, _ = eam.embedding_function(rho + h)
        Fm, _ = eam.embedding_function(rho - h)
        assert np.allclose(dF, (Fp - Fm) / (2 * h), atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_radial_functions_keep_the_input_dtype(self, eam, dtype):
        """Every constant is a python float, so NEP 50 keeps float32
        pair math in float32 (SINGLE/MIXED compute dtype)."""
        r = np.linspace(2.0, eam.cutoff - 0.05, 16).astype(dtype)
        for value, deriv in (
            eam.density_function(r),
            eam.pair_function(r),
            eam.embedding_function(np.linspace(1.0, 20.0, 16).astype(dtype)),
        ):
            assert value.dtype == deriv.dtype == dtype

    def test_parameters_are_python_floats(self):
        params = EAMParameters(chi=np.float64(3.0), n_exp=1)
        assert all(type(value) is float for value in astuple(params))
        assert params == EAMParameters(n_exp=1.0)

    def test_embedding_cohesive_around_equilibrium(self, eam):
        F, _ = eam.embedding_function(np.array([eam.params.rho_e * 0.8]))
        assert F[0] < 0


class TestEnergetics:
    def test_isolated_pair_energy_hand_check(self, eam):
        """Two atoms: E = 2 F(f(r)) + phi(r), matched by hand."""
        box = Box([30, 30, 30])
        r = 3.0
        energy = _energy_of(np.array([[10.0, 10, 10], [10.0 + r, 10, 10]]), box, eam)
        f, _ = eam.density_function(np.array([r]))
        phi, _ = eam.pair_function(np.array([r]))
        F, _ = eam.embedding_function(f)
        assert energy == pytest.approx(2 * F[0] + phi[0], rel=1e-10)

    def test_fcc_crystal_is_cohesive(self, eam):
        positions, box = fcc_positions(4, 3.615)
        energy = _energy_of(positions, box, eam)
        assert energy / len(positions) < -1.0  # strongly bound solid

    def test_cohesive_energy_curve_has_minimum_near_cu_lattice(self, eam):
        a = np.linspace(3.0, 4.4, 141)
        curve = _cohesive_energy_curve(eam, a)
        a_min = a[np.argmin(curve)]
        assert 3.2 < a_min < 4.1  # copper-like equilibrium spacing

    def test_compression_raises_energy(self, eam):
        positions, box = fcc_positions(4, 3.615)
        e0 = _energy_of(positions, box, eam)
        squeezed_box = Box(box.lengths * 0.93)
        e1 = _energy_of(positions * 0.93, squeezed_box, eam)
        assert e1 > e0


class TestForces:
    #: Kernel backend every check here computes on.
    backend = "numpy_fast"

    @pytest.fixture
    def eam(self):
        eam = EAMAlloy()
        eam.backend = self.backend
        return eam

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None, suppress_health_check=BACKEND_TWINS)
    def test_forces_match_finite_differences(self, seed):
        """Property: many-body analytic forces equal -grad E."""
        rng = np.random.default_rng(seed)
        box = Box([14.0, 14.0, 14.0])
        # Loose cluster around the cell centre, min spacing ~2 A.
        base = np.array([7.0, 7.0, 7.0])
        positions = base + rng.uniform(-3.0, 3.0, (8, 3))
        eam = EAMAlloy()
        eam.backend = self.backend

        def energy(pos):
            return _energy_of(pos, box, eam)

        system = AtomSystem(positions, box)
        nlist = NeighborList(eam.cutoff, 0.5)
        nlist.build(system)
        system.forces[:] = 0.0
        eam.compute(system, nlist)
        reference = finite_difference_forces(energy, system.positions, h=1e-5)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.allclose(system.forces, reference, atol=1e-4 * scale)

    def test_perfect_crystal_forces_vanish(self, eam):
        positions, box = fcc_positions(4, 3.615)
        system = AtomSystem(positions, box)
        nlist = NeighborList(eam.cutoff, 0.5)
        nlist.build(system)
        system.forces[:] = 0.0
        eam.compute(system, nlist)
        assert np.allclose(system.forces, 0.0, atol=1e-9)

    def test_custom_parameters_respected(self):
        params = EAMParameters(cutoff=4.0)
        assert EAMAlloy(params).cutoff == pytest.approx(4.0)

    def test_isolated_atom_zero_energy(self, eam):
        box = Box([30, 30, 30])
        assert _energy_of(np.array([[15.0, 15, 15]]), box, eam) == pytest.approx(0.0)

    def test_replaced_parameters_cut_at_their_own_cutoff(self):
        """``cutoff`` is read from ``params``: once ``params`` is
        replaced, a pass over a list built for the old cutoff counts,
        sums and pushes what a fresh ``EAMAlloy`` of the new parameters
        does."""
        system = eam_solid_system(256, seed=1)
        nlist = NeighborList(4.95, 1.0)
        nlist.build(system)
        replaced = EAMAlloy()
        replaced.params = replace(replaced.params, cutoff=3.0)
        results = []
        for eam in (replaced, EAMAlloy(replaced.params)):
            eam.backend = self.backend
            system.forces[:] = 0.0
            results.append((eam.compute(system, nlist), system.forces.copy()))
        (got, got_forces), (want, want_forces) = results
        assert replaced.cutoff == 3.0
        assert got.interactions == want.interactions == 1536
        assert got.energy == want.energy
        assert np.array_equal(got_forces, want_forces)


class TestForcesCompiled(TestForces):
    """The same checks through the native routes of ``compiled``
    (``numpy_fast`` with a warning where no C compiler builds)."""

    backend = "compiled"
