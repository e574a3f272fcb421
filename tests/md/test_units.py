"""Tests for the unit-system conversions."""

import pytest

from repro.md.units import (
    LJ_ARGON,
    METAL,
    REAL_LIKE,
    timesteps_to_ns,
    unit_system_for,
)


class TestUnitSystems:
    def test_lj_argon_tau_is_about_2ps(self):
        """The textbook value: one LJ time unit for argon ~ 2.16 ps."""
        assert LJ_ARGON.time_unit_fs == pytest.approx(2156, rel=0.01)

    def test_real_like_time_unit(self):
        """sqrt(g/mol A^2 / (kcal/mol)) = 48.89 fs — the basis of the
        rhodo deck's dt = 0.0409 (= 2 fs)."""
        assert REAL_LIKE.time_unit_fs == pytest.approx(48.89, rel=1e-3)
        assert REAL_LIKE.dt_to_fs(0.0409) == pytest.approx(2.0, rel=0.01)

    def test_metal_time_unit_is_ps(self):
        assert METAL.dt_to_fs(0.005) == pytest.approx(5.0)

    def test_lj_deck_timestep_matches_workload(self):
        """0.005 tau ~ 10.8 fs — the value in the lj workload params."""
        from repro.model.workloads import get_workload

        assert LJ_ARGON.dt_to_fs(0.005) == pytest.approx(
            get_workload("lj").timestep_fs, rel=0.01
        )

    def test_temperature_round_trip(self):
        t_internal = REAL_LIKE.kelvin_to_internal(300.0)
        assert t_internal == pytest.approx(0.596, rel=1e-2)
        assert REAL_LIKE.internal_to_kelvin(t_internal) == pytest.approx(300.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            METAL.dt_to_fs(0.0)


class TestLookups:
    def test_benchmark_mapping(self):
        assert unit_system_for("lj") is LJ_ARGON
        assert unit_system_for("chain") is LJ_ARGON
        assert unit_system_for("eam") is METAL
        assert unit_system_for("rhodo") is REAL_LIKE

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            unit_system_for("water")


class TestHeadlineArithmetic:
    def test_paper_ns_per_day_check(self):
        """10.77 TS/s * 86400 s * 2 fs = 1.86e6 fs/day ~ 1.9 ns/day —
        the paper rounds to 2 ns/day."""
        steps_per_day = 10.77 * 86_400
        assert timesteps_to_ns(steps_per_day, 2.0) == pytest.approx(1.861, rel=1e-3)

    def test_invalid_timestep(self):
        with pytest.raises(ValueError):
            timesteps_to_ns(100, 0.0)
