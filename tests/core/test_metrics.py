"""Tests for the derived performance metrics."""

import pytest

from repro.model.framework.efficiency import (
    energy_efficiency,
    ns_per_day,
    parallel_efficiency,
    parallel_efficiency_series,
    timesteps_for_runtime,
)


class TestParallelEfficiency:
    def test_perfect_scaling(self):
        assert parallel_efficiency(64.0, 1.0, 64) == pytest.approx(1.0)

    def test_half_efficiency(self):
        assert parallel_efficiency(32.0, 1.0, 64) == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 1.0, 0)

    def test_series_uses_first_point_as_baseline(self):
        effs = parallel_efficiency_series([10.0, 18.0, 30.0], [1, 2, 4])
        assert effs[0] == pytest.approx(1.0)
        assert effs[1] == pytest.approx(0.9)
        assert effs[2] == pytest.approx(0.75)

    def test_series_baseline_rescaled_to_one_resource(self):
        """GPU plots start at 1 device: efficiency is relative to it."""
        effs = parallel_efficiency_series([20.0, 40.0], [2, 4])
        assert effs[0] == pytest.approx(1.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            parallel_efficiency_series([], [])
        with pytest.raises(ValueError):
            parallel_efficiency_series([1.0], [1, 2])


class TestEnergyAndTurnaround:
    def test_energy_efficiency(self):
        assert energy_efficiency(100.0, 200.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0)

    def test_ns_per_day_rhodo_headline(self):
        """10.77 TS/s at 2 fs -> ~1.86 ns/day (the paper rounds to 2)."""
        assert ns_per_day(10.77, 2.0) == pytest.approx(1.861, rel=1e-3)

    def test_ns_per_day_validation(self):
        with pytest.raises(ValueError):
            ns_per_day(1.0, 0.0)

    def test_timesteps_for_runtime(self):
        assert timesteps_for_runtime(100.0, 10.0) == 1000

    def test_timesteps_rounds_up(self):
        assert timesteps_for_runtime(0.05, 10.0) == 1

    def test_timesteps_validation(self):
        with pytest.raises(ValueError):
            timesteps_for_runtime(0.0, 10.0)
