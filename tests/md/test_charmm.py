"""Tests for the CHARMM switched-LJ + long-range-Coulomb pair style."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList
from repro.md.potentials.charmm import CharmmCoulLong, charmm_switch

from tests.conftest import finite_difference_forces


class TestSwitchFunction:
    def test_one_below_inner(self):
        s, ds = charmm_switch(np.array([4.0]), 8.0, 10.0)
        assert s[0] == pytest.approx(1.0)
        assert ds[0] == pytest.approx(0.0)

    def test_zero_beyond_outer(self):
        s, ds = charmm_switch(np.array([121.0]), 8.0, 10.0)
        assert s[0] == pytest.approx(0.0)
        assert ds[0] == pytest.approx(0.0)

    def test_continuous_at_boundaries(self):
        eps = 1e-9
        s_in, _ = charmm_switch(np.array([(8.0 + eps) ** 2]), 8.0, 10.0)
        assert s_in[0] == pytest.approx(1.0, abs=1e-6)
        s_out, _ = charmm_switch(np.array([(10.0 - eps) ** 2]), 8.0, 10.0)
        assert s_out[0] == pytest.approx(0.0, abs=1e-6)

    @given(r=st.floats(8.01, 9.99))
    @settings(max_examples=30, deadline=None)
    def test_monotonically_decreasing_in_window(self, r):
        s1, _ = charmm_switch(np.array([r * r]), 8.0, 10.0)
        s2, _ = charmm_switch(np.array([(r + 0.005) ** 2]), 8.0, 10.0)
        assert s2[0] <= s1[0]

    @given(r=st.floats(8.05, 9.95))
    @settings(max_examples=20, deadline=None)
    def test_derivative_matches_finite_difference(self, r):
        h = 1e-6
        _, ds = charmm_switch(np.array([r * r]), 8.0, 10.0)
        sp, _ = charmm_switch(np.array([(r + h) ** 2]), 8.0, 10.0)
        sm, _ = charmm_switch(np.array([(r - h) ** 2]), 8.0, 10.0)
        assert ds[0] == pytest.approx((sp[0] - sm[0]) / (2 * h), abs=1e-5)


def _dimer_system(r, charges=(1.0, -1.0)):
    box = Box([40.0, 40.0, 40.0])
    positions = np.array([[15.0, 20, 20], [15.0 + r, 20, 20]])
    return AtomSystem(positions, box, charges=np.array(charges))


class TestCoulomb:
    def test_plain_coulomb_energy(self):
        pot = CharmmCoulLong(epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0)
        system = _dimer_system(2.0)
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        assert pot.energy_only(system, nlist) == pytest.approx(-0.5)

    def test_erfc_screened_energy(self):
        alpha = 0.3
        pot = CharmmCoulLong(
            epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0, alpha=alpha
        )
        system = _dimer_system(2.0)
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        expected = -erfc(alpha * 2.0) / 2.0
        assert pot.energy_only(system, nlist) == pytest.approx(expected)

    def test_opposite_charges_attract(self):
        pot = CharmmCoulLong(epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0)
        system = _dimer_system(3.0)
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        system.forces[:] = 0.0
        pot.compute(system, nlist)
        assert system.forces[0, 0] > 0  # pulled toward the partner

    def test_like_charges_repel(self):
        pot = CharmmCoulLong(epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0)
        system = _dimer_system(3.0, charges=(1.0, 1.0))
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        system.forces[:] = 0.0
        pot.compute(system, nlist)
        assert system.forces[0, 0] < 0

    def test_coulomb_constant_scales_energy(self):
        base = CharmmCoulLong(epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0)
        scaled = CharmmCoulLong(
            epsilon=[0.0], sigma=[1.0], lj_inner=8.0, cutoff=10.0, coulomb_constant=332.0
        )
        system = _dimer_system(2.0)
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        assert scaled.energy_only(system, nlist) == pytest.approx(
            332.0 * base.energy_only(system, nlist)
        )


class TestValidation:
    def test_inner_must_be_below_outer(self):
        with pytest.raises(ValueError):
            CharmmCoulLong(lj_inner=10.0, cutoff=10.0)

    def test_coul_cutoff_cannot_exceed_lj_cutoff(self):
        with pytest.raises(ValueError):
            CharmmCoulLong(lj_inner=8.0, cutoff=10.0, coul_cutoff=12.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # A negative alpha used to run plain cut Coulomb silently.
            ("alpha", -0.3),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            # A negative Coulomb cutoff used to turn the term off.
            ("coul_cutoff", -1.0),
            ("coul_cutoff", 0.0),
            ("coul_cutoff", float("nan")),
            ("coul_cutoff", float("-inf")),
            ("lj_inner", -1.0),
            ("lj_inner", float("nan")),
            ("lj_inner", float("-inf")),
        ],
    )
    def test_bad_parameter_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            CharmmCoulLong(**{"lj_inner": 8.0, "cutoff": 10.0, field: value})


class TestForces:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_forces_match_finite_differences(self, seed):
        """Property: switched LJ + erfc Coulomb forces equal -grad E."""
        rng = np.random.default_rng(seed)
        box = Box([24.0, 24.0, 24.0])
        positions = rng.uniform(2.0, 22.0, (8, 3))
        charges = rng.normal(size=8)
        charges -= charges.mean()
        pot = CharmmCoulLong(
            epsilon=[0.2], sigma=[3.0], lj_inner=8.0, cutoff=10.0, alpha=0.25
        )

        def energy(pos):
            system = AtomSystem(pos, box, charges=charges)
            nlist = NeighborList(10.0, 1.0)
            nlist.build(system)
            return pot.energy_only(system, nlist)

        system = AtomSystem(positions, box, charges=charges)
        nlist = NeighborList(10.0, 1.0)
        nlist.build(system)
        system.forces[:] = 0.0
        pot.compute(system, nlist)
        reference = finite_difference_forces(energy, system.positions, h=1e-5)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.allclose(system.forces, reference, atol=2e-4 * scale)

    def test_arithmetic_mixing_cross_sigma(self):
        pot = CharmmCoulLong(
            epsilon=np.array([1.0, 1.0]),
            sigma=np.array([2.0, 4.0]),
            lj_inner=8.0,
            cutoff=10.0,
        )
        assert pot.sigma_table[0, 1] == pytest.approx(3.0)
