"""Tests for thermodynamic computes and the thermo log."""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.thermo import ThermoLog, pressure


class TestPressure:
    def test_ideal_gas_limit(self):
        """With zero virial, P = N kB T / V exactly."""
        rng = np.random.default_rng(41)
        box = Box([10.0, 10.0, 10.0])
        system = AtomSystem(rng.uniform(0, 10, (100, 3)), box)
        system.seed_velocities(1.5, rng)
        # P V = 2/3 KE for an ideal gas.
        expected = 2.0 * system.kinetic_energy() / (3.0 * box.volume)
        assert pressure(system, 0.0) == pytest.approx(expected)

    def test_positive_virial_raises_pressure(self):
        box = Box([10.0, 10.0, 10.0])
        system = AtomSystem(np.ones((10, 3)), box)
        assert pressure(system, 100.0) > pressure(system, 0.0)


class TestThermoLog:
    def _system(self):
        rng = np.random.default_rng(43)
        box = Box([10, 10, 10])
        system = AtomSystem(rng.uniform(0, 10, (20, 3)), box)
        system.seed_velocities(1.0, rng)
        return system

    def test_interval_logic(self):
        log = ThermoLog(every=10)
        assert log.should_log(10)
        assert log.should_log(20)
        assert not log.should_log(15)

    def test_disabled_log(self):
        log = ThermoLog(every=0)
        assert not log.should_log(100)

    def test_record_fields(self):
        system = self._system()
        log = ThermoLog(every=1)
        snap = log.record(5, system, potential_energy=-3.0, virial=1.0)
        assert snap.step == 5
        assert snap.total_energy == pytest.approx(
            system.kinetic_energy() - 3.0
        )
        assert snap.volume == pytest.approx(1000.0)
        assert len(log) == 1

    def test_series_extraction(self):
        system = self._system()
        log = ThermoLog(every=1)
        for step in range(3):
            log.record(step, system, potential_energy=-float(step), virial=0.0)
        assert np.allclose(log.series("potential_energy"), [0.0, -1.0, -2.0])
        assert log.series("step").tolist() == [0.0, 1.0, 2.0]

    def test_series_empty(self):
        assert len(ThermoLog().series("temperature")) == 0
