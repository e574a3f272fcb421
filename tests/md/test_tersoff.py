"""Tests for the Tersoff three-body bond-order potential (silicon)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import available_backends
from repro.md.lattice import diamond_positions, tersoff_silicon_system
from repro.md.neighbor import NeighborList
from repro.md.potentials.tersoff import Tersoff, TersoffParameters

from tests.conftest import BACKEND_TWINS, finite_difference_forces


@pytest.fixture
def tersoff():
    return Tersoff()


def _compute(positions, box, pot):
    system = AtomSystem(np.asarray(positions, dtype=float), box, masses=28.0855)
    nlist = NeighborList(pot.cutoff, 0.5, full=True)
    nlist.build(system)
    system.forces[:] = 0.0
    result = pot.compute(system, nlist)
    return result, system


def _energy_of(positions, box, pot):
    return _compute(positions, box, pot)[0].energy


class TestIngredients:
    def test_cutoff_plateaus(self, tersoff):
        p = tersoff.params
        fc, dfc = tersoff.cutoff_function(np.array([1.0, p.R - p.D, p.R + p.D, 4.0]))
        np.testing.assert_allclose(fc, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
        # Exactly at the ramp ends rounding may leave x a ulp inside, so
        # the slope is merely ~1e-15 rather than an exact zero.
        np.testing.assert_allclose(dfc, 0.0, atol=1e-12)

    def test_cutoff_midpoint_half(self, tersoff):
        fc, _ = tersoff.cutoff_function(np.array([tersoff.params.R]))
        assert fc[0] == pytest.approx(0.5)

    def test_cutoff_slope_matches_finite_difference(self, tersoff):
        r = np.linspace(2.71, 2.99, 25)
        _, dfc = tersoff.cutoff_function(r)
        h = 1e-7
        fp, _ = tersoff.cutoff_function(r + h)
        fm, _ = tersoff.cutoff_function(r - h)
        np.testing.assert_allclose(dfc, (fp - fm) / (2 * h), atol=1e-6)

    def test_radial_terms_match_finite_difference(self, tersoff):
        r = np.linspace(1.8, 2.9, 20)
        h = 1e-7
        for fn in (tersoff.repulsive, tersoff.attractive):
            _, dv = fn(r)
            vp, _ = fn(r + h)
            vm, _ = fn(r - h)
            np.testing.assert_allclose(dv, (vp - vm) / (2 * h), rtol=1e-6)

    def test_angular_minimum_at_h(self, tersoff):
        # g is minimal where cos(theta) = h; its derivative vanishes there.
        p = tersoff.params
        g_min, dg = tersoff.angular(np.array([p.h]))
        assert dg[0] == pytest.approx(0.0, abs=1e-12)
        g_away, _ = tersoff.angular(np.array([p.h + 0.3]))
        assert g_away[0] > g_min[0]

    def test_angular_derivative_matches_finite_difference(self, tersoff):
        cos = np.linspace(-0.95, 0.95, 30)
        _, dg = tersoff.angular(cos)
        h = 1e-7
        gp, _ = tersoff.angular(cos + h)
        gm, _ = tersoff.angular(cos - h)
        np.testing.assert_allclose(dg, (gp - gm) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_bond_order_is_one_without_triplets(self, tersoff):
        b, db = tersoff.bond_order(np.array([0.0]))
        assert b[0] == 1.0
        assert db[0] == 0.0

    def test_bond_order_decreases_with_coordination(self, tersoff):
        zeta = np.linspace(0.5, 8.0, 20)
        b, db = tersoff.bond_order(zeta)
        assert np.all(np.diff(b) < 0)
        assert np.all(db < 0)

    def test_bond_order_derivative_matches_finite_difference(self, tersoff):
        # db is only ~1e-5 against b ~ 1, so a wider step keeps the
        # central difference above cancellation noise.
        zeta = np.linspace(0.2, 6.0, 25)
        _, db = tersoff.bond_order(zeta)
        h = 1e-4
        bp, _ = tersoff.bond_order(zeta + h)
        bm, _ = tersoff.bond_order(zeta - h)
        np.testing.assert_allclose(db, (bp - bm) / (2 * h), rtol=1e-4)


class TestDimerAndTrimer:
    def test_dimer_energy_matches_helper(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array([[10.0, 10.0, 10.0], [12.2, 10.0, 10.0]])
        result, _ = _compute(pos, box, tersoff)
        assert result.energy == pytest.approx(tersoff.dimer_energy(2.2), rel=1e-12)

    def test_dimer_hand_computed(self, tersoff):
        # Below the ramp fc = 1 and zeta = 0, so E = A e^{-l1 r} - B e^{-l2 r}.
        p = tersoff.params
        r = 2.3
        expected = p.A * np.exp(-p.lambda1 * r) - p.B * np.exp(-p.lambda2 * r)
        assert tersoff.dimer_energy(r) == pytest.approx(expected, rel=1e-14)

    def test_beyond_cutoff_is_zero(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array([[10.0, 10.0, 10.0], [13.2, 10.0, 10.0]])
        result, system = _compute(pos, box, tersoff)
        assert result.energy == 0.0
        assert np.all(system.forces == 0.0)

    def test_trimer_angular_term_lowers_binding(self, tersoff):
        # A third atom raises zeta, so b < 1 weakens each bond relative
        # to three independent dimers.
        box = Box(np.full(3, 40.0))
        r = 2.35
        trimer = np.array(
            [[10.0, 10.0, 10.0], [10.0 + r, 10.0, 10.0], [10.0, 10.0 + r, 10.0]]
        )
        e_trimer = _energy_of(trimer, box, tersoff)
        e_dimer = tersoff.dimer_energy(r)
        e_diag = tersoff.dimer_energy(r * np.sqrt(2.0))
        assert e_trimer > 2 * e_dimer + e_diag

    def test_trimer_forces_match_finite_difference(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array(
            [[10.0, 10.0, 10.0], [12.3, 10.2, 9.9], [10.3, 12.2, 10.4]]
        )
        _, system = _compute(pos, box, tersoff)
        fd = finite_difference_forces(lambda p: _energy_of(p, box, tersoff), pos)
        np.testing.assert_allclose(system.forces, fd, atol=5e-7)


class TestCrystal:
    #: Kernel backend every check here computes on.
    backend = "numpy_fast"

    @pytest.fixture
    def tersoff(self):
        pot = Tersoff()
        pot.backend = self.backend
        return pot

    def test_cohesive_energy_near_literature(self, tersoff):
        # Tersoff's T3 silicon binds at -4.63 eV/atom at a = 5.432 A.
        system = tersoff_silicon_system(512, temperature=0.0)
        nlist = NeighborList(tersoff.cutoff, 0.5, full=True)
        nlist.build(system)
        energy = tersoff.energy_only(system, nlist)
        assert energy / system.n_atoms == pytest.approx(-4.63, abs=0.01)

    def test_perfect_crystal_forces_vanish(self, tersoff):
        pos, box = diamond_positions(2, 5.431)
        _, system = _compute(pos, box, tersoff)
        assert np.abs(system.forces).max() < 1e-10

    def test_diamond_first_shell_inside_cutoff_second_outside(self):
        # a sqrt(3)/4 = 2.35 A < 3.0 A cutoff < a/sqrt(2) = 3.84 A: only
        # the four bonded neighbours interact.
        a = 5.431
        assert a * np.sqrt(3.0) / 4.0 < Tersoff().cutoff < a / np.sqrt(2.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None, suppress_health_check=BACKEND_TWINS)
    def test_forces_match_finite_difference(self, seed):
        pot = Tersoff()
        pot.backend = self.backend
        rng = np.random.default_rng(seed)
        # One cell is smaller than cutoff+skin allows; two cells (64
        # atoms) give a 10.9 A box with headroom.
        pos, box = diamond_positions(2, 5.431)
        pos = pos + rng.normal(scale=0.12, size=pos.shape)
        _, system = _compute(pos, box, pot)
        fd = finite_difference_forces(lambda p: _energy_of(p, box, pot), pos)
        scale = max(np.abs(system.forces).max(), 1.0)
        np.testing.assert_allclose(system.forces, fd, atol=1e-4 * scale)

    def test_virial_matches_scaling_derivative(self, tersoff):
        # W = sum r.f equals -dE/dlambda under uniform dilation.
        rng = np.random.default_rng(7)
        pos, box = diamond_positions(2, 5.431)
        pos = pos + rng.normal(scale=0.1, size=pos.shape)

        def at_scale(lam):
            scaled = Box(box.lengths * lam)
            return _compute(pos * lam, scaled, tersoff)[0]

        h = 1e-6
        fd = (at_scale(1 + h).energy - at_scale(1 - h).energy) / (2 * h)
        assert at_scale(1.0).virial == pytest.approx(-fd, rel=1e-6)

    def test_interactions_reported_as_directed_pairs(self, tersoff):
        pos, box = diamond_positions(2, 5.431)
        result, _ = _compute(pos, box, tersoff)
        # 4 bonded neighbours per atom, both directions counted.
        assert result.interactions == 4 * len(pos)

    def test_replaced_parameters_cut_at_their_own_cutoff(self):
        """``cutoff`` is read from ``params``: once ``R``/``D`` are
        replaced, a pass over a list built for the old cutoff counts,
        sums and pushes what a fresh ``Tersoff`` of the new parameters
        does."""
        rng = np.random.default_rng(5)
        pos, box = diamond_positions(2, 5.431)
        system = AtomSystem(pos + rng.normal(scale=0.1, size=pos.shape), box)
        nlist = NeighborList(3.0, 0.5, full=True)
        nlist.build(system)
        replaced = Tersoff()
        replaced.params = replace(replaced.params, R=2.3, D=0.1)
        results = []
        for pot in (replaced, Tersoff(replaced.params)):
            pot.backend = self.backend
            system.forces[:] = 0.0
            results.append((pot.compute(system, nlist), system.forces.copy()))
        (got, got_forces), (want, want_forces) = results
        assert replaced.cutoff == pytest.approx(2.4)
        assert 0 < got.interactions == want.interactions < 4 * len(pos)
        assert got.energy == want.energy
        assert np.array_equal(got_forces, want_forces)


class TestCrystalCompiled(TestCrystal):
    """The same checks through the native routes of ``compiled``
    (``numpy_fast`` with a warning where no C compiler builds)."""

    backend = "compiled"


class TestBackendParity:
    def test_all_backends_match_oracle(self):
        states = {}
        for name in available_backends():
            pot = Tersoff()
            pot.backend = name
            rng = np.random.default_rng(3)
            pos, box = diamond_positions(2, 5.431)
            pos = pos + rng.normal(scale=0.08, size=pos.shape)
            result, system = _compute(pos, box, pot)
            states[name] = (result.energy, result.virial, system.forces.copy())
        e_ref, w_ref, f_ref = states["numpy_ref"]
        for name, (e, w, f) in states.items():
            assert e == pytest.approx(e_ref, abs=1e-12), name
            assert w == pytest.approx(w_ref, abs=1e-12), name
            np.testing.assert_allclose(
                f, f_ref, atol=1e-12, err_msg=f"backend {name}"
            )


class TestDynamics:
    #: Kernel backend every check here computes on.
    backend = "numpy_fast"

    def test_nve_conserves_energy(self):
        from repro.suite.registry import get_benchmark

        sim = get_benchmark("tersoff").build(64)
        sim.set_backend(self.backend)
        sim.run(1)
        e0 = sim.total_energy()
        sim.run(300)
        drift = abs(sim.total_energy() - e0) / sim.system.n_atoms
        assert drift < 1e-7

    def test_snapshot_roundtrip_bitwise(self, tmp_path):
        from repro.md.restart import restore_simulation, save_snapshot
        from repro.suite.registry import get_benchmark

        defn = get_benchmark("tersoff")
        sim = defn.build(64)
        sim.set_backend(self.backend)
        sim.run(10)
        path = tmp_path / "tersoff.npz"
        save_snapshot(sim, path)
        twin = defn.build(64)
        twin.set_backend(self.backend)
        restore_simulation(twin, path)
        sim.run(15)
        twin.run(15)
        assert np.array_equal(sim.system.positions, twin.system.positions)
        assert np.array_equal(sim.system.velocities, twin.system.velocities)
        assert np.array_equal(sim.system.forces, twin.system.forces)


class TestDynamicsCompiled(TestDynamics):
    """The same checks through the native routes of ``compiled``
    (``numpy_fast`` with a warning where no C compiler builds)."""

    backend = "compiled"


class TestParameters:
    def test_default_cutoff(self):
        assert TersoffParameters().cutoff == pytest.approx(3.0)

    def test_halo_width_adds_cutoff(self, tersoff):
        assert tersoff.halo_width(3.5) == pytest.approx(3.5 + tersoff.cutoff)

    def test_needs_full_list(self, tersoff):
        assert tersoff.needs_full_list
