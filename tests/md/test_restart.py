"""Tests for snapshot/restart serialization."""

import numpy as np
import pytest

from repro.md.restart import (
    SnapshotError,
    load_system,
    restore_simulation,
    save_snapshot,
)
from repro.suite import get_benchmark


class TestRoundTrip:
    def test_system_state_preserved(self, tmp_path):
        sim = get_benchmark("lj").build(200)
        sim.run(20)
        path = save_snapshot(sim, tmp_path / "snap.npz")
        system, step = load_system(path)
        assert step == 20
        assert np.array_equal(system.positions, sim.system.positions)
        assert np.array_equal(system.velocities, sim.system.velocities)
        assert np.array_equal(system.images, sim.system.images)

    def test_topology_preserved(self, tmp_path):
        sim = get_benchmark("chain").build(200)
        sim.run(5)
        path = save_snapshot(sim, tmp_path / "snap.npz")
        system, _ = load_system(path)
        assert np.array_equal(system.topology.bonds, sim.system.topology.bonds)

    def test_granular_state_preserved(self, tmp_path):
        sim = get_benchmark("chute").build(150)
        sim.run(30)
        path = save_snapshot(sim, tmp_path / "snap.npz")
        system, _ = load_system(path)
        assert system.is_granular
        assert np.array_equal(system.omega, sim.system.omega)
        assert np.array_equal(system.radii, sim.system.radii)

    def test_version_guard(self, tmp_path):
        sim = get_benchmark("lj").build(100)
        path = save_snapshot(sim, tmp_path / "snap.npz")
        data = dict(np.load(path))
        data["format_version"] = np.array([99])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="format"):
            load_system(path)


class TestTrajectoryContinuity:
    def test_restart_reproduces_uninterrupted_nve_run(self, tmp_path):
        """Checkpoint at step 30, continue to 60: identical to a
        straight 60-step run (bitwise, for deterministic NVE)."""
        straight = get_benchmark("lj").build(200, seed=123)
        straight.run(60)

        first = get_benchmark("lj").build(200, seed=123)
        first.run(30)
        path = save_snapshot(first, tmp_path / "mid.npz")

        resumed = get_benchmark("lj").build(200, seed=123)
        restore_simulation(resumed, path)
        assert resumed.step_number == 30
        resumed.run(30)

        # Format v2 restores are exact: bitwise, not merely allclose.
        assert np.array_equal(
            resumed.system.positions, straight.system.positions
        )
        assert np.array_equal(
            resumed.system.velocities, straight.system.velocities
        )
        assert np.array_equal(resumed.system.forces, straight.system.forces)

    def test_restore_does_not_recompute_forces(self, tmp_path):
        """v2 restores take forces/energy from the file verbatim — a
        recompute would double-advance granular contact histories."""
        sim = get_benchmark("lj").build(200)
        sim.run(10)
        path = save_snapshot(sim, tmp_path / "snap.npz")

        resumed = get_benchmark("lj").build(200)
        calls = []
        original = resumed._compute_forces
        resumed._compute_forces = lambda *a, **kw: (
            calls.append(1),
            original(*a, **kw),
        )[1]
        restore_simulation(resumed, path)
        assert calls == []
        assert np.array_equal(resumed.system.forces, sim.system.forces)
        assert resumed.potential_energy == sim.potential_energy

    def test_atom_count_mismatch_rejected(self, tmp_path):
        small = get_benchmark("lj").build(100)
        path = save_snapshot(small, tmp_path / "snap.npz")
        big = get_benchmark("lj").build(500)
        with pytest.raises(ValueError, match="atoms"):
            restore_simulation(big, path)


class TestLegacyV1:
    def _write_v1(self, sim, path):
        """Downgrade a fresh v2 snapshot to the legacy v1 layout."""
        v2 = path.with_suffix(".v2.npz")
        save_snapshot(sim, v2)
        data = dict(np.load(v2))
        payload = {
            key: value
            for key, value in data.items()
            if not key.startswith(("hist", "neigh_"))
            and key not in ("state_json", "potential_energy", "virial")
        }
        payload["format_version"] = np.array([1])
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        return path

    def test_v1_rejected_without_opt_in(self, tmp_path):
        sim = get_benchmark("lj").build(200)
        sim.run(5)
        path = self._write_v1(sim, tmp_path / "snap.npz")
        fresh = get_benchmark("lj").build(200)
        with pytest.raises(ValueError, match="v1"):
            restore_simulation(fresh, path)

    def test_v1_refusal_leaves_simulation_untouched(self, tmp_path):
        """The lossy v1 upgrade is gone: no keyword opts back in, and a
        refused restore has not half-loaded the particle state."""
        sim = get_benchmark("lj").build(200)
        sim.run(5)
        path = self._write_v1(sim, tmp_path / "snap.npz")
        fresh = get_benchmark("lj").build(200)
        before = fresh.system.positions.copy()
        with pytest.raises(TypeError, match="allow_v1"):
            restore_simulation(fresh, path, allow_v1=True)
        with pytest.raises(SnapshotError, match="format v1"):
            restore_simulation(fresh, path)
        assert fresh.step_number == 0
        assert np.array_equal(fresh.system.positions, before)
