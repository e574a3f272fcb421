"""Property-style snapshot round-trip tests (seeded randomized loops).

No external property-testing dependency: each loop draws benchmark /
seed / step-count combinations from a seeded ``numpy`` generator, runs
the simulation, and checks that ``load_snapshot(save_snapshot(sim))``
reproduces every field exactly.  Error paths (missing, corrupted,
truncated, wrong-version, legacy-v1 files) are exercised explicitly.
"""

import json

import numpy as np
import pytest

from repro.md.restart import (
    FORMAT_VERSION,
    SnapshotError,
    load_snapshot,
    load_system,
    restore_simulation,
    save_snapshot,
)
from repro.suite import get_benchmark

SIZES = {"lj": 400, "chain": 400, "eam": 500, "rhodo": 384, "chute": 480}

_ARRAY_FIELDS = (
    "positions",
    "velocities",
    "forces",
    "images",
    "masses",
    "types",
    "charges",
    "molecule_ids",
)


def _build(name, seed=1234):
    sim = get_benchmark(name).build(SIZES[name], seed=seed)
    return sim


def _run(sim, steps):
    sim.setup()
    for _ in range(steps):
        sim.step()
    return sim


def _assert_system_equal(loaded, original):
    for field in _ARRAY_FIELDS:
        got = getattr(loaded, field)
        want = getattr(original, field)
        assert np.array_equal(got, want), field
    assert np.array_equal(loaded.box.lengths, original.box.lengths)
    assert np.array_equal(loaded.box.periodic, original.box.periodic)
    assert np.array_equal(loaded.box.origin, original.box.origin)
    assert np.array_equal(loaded.topology.bonds, original.topology.bonds)
    assert np.array_equal(loaded.topology.angles, original.topology.angles)
    if original.radii is not None:
        assert np.array_equal(loaded.radii, original.radii)
        assert np.array_equal(loaded.omega, original.omega)
        assert np.array_equal(loaded.torques, original.torques)
    else:
        assert loaded.radii is None


class TestRoundTrip:
    def test_randomized_round_trips(self, tmp_path):
        """Seeded random (benchmark, seed, steps) draws round-trip exactly."""
        rng = np.random.default_rng(20260806)
        names = sorted(SIZES)
        for trial in range(6):
            name = names[int(rng.integers(len(names)))]
            seed = int(rng.integers(1, 10_000))
            steps = int(rng.integers(1, 9))
            sim = _run(_build(name, seed=seed), steps)
            path = tmp_path / f"trial{trial}.npz"
            save_snapshot(sim, path)
            snap = load_snapshot(path)

            assert snap.version == FORMAT_VERSION
            assert snap.step_number == sim.step_number == steps
            assert snap.potential_energy == sim.potential_energy
            assert snap.virial == sim.virial
            _assert_system_equal(snap.system, sim.system)

            # Dynamical state survives the JSON round-trip verbatim.
            state = snap.state
            assert state["integrator"]["type"] == type(sim.integrator).__name__
            want_state = json.loads(
                json.dumps(sim.integrator.state_dict(), default=_jsonify)
            )
            assert state["integrator"]["state"] == want_state
            assert state["counts"]["timesteps"] == sim.counts.timesteps
            assert (
                state["neighbor_stats"] == _roundtrip_json(
                    sim.neighbor.stats.state_dict()
                )
            )

            # Neighbor build inputs captured.
            build_state = sim.neighbor.export_build_state()
            assert snap.neighbor_build is not None
            assert np.array_equal(snap.neighbor_build[0], build_state[0])
            assert np.array_equal(snap.neighbor_build[1], build_state[1])

            # Contact histories (granular benchmark only).
            histories = sim.force_executor.export_contact_histories()
            assert sorted(snap.histories) == sorted(histories)
            for slot, (keys, values) in histories.items():
                assert np.array_equal(snap.histories[slot][0], keys)
                assert np.array_equal(snap.histories[slot][1], values)

    def test_langevin_rng_stream_round_trips(self, tmp_path):
        """The Langevin thermostat's generator state is captured exactly."""
        sim = _run(_build("chain"), 5)
        path = tmp_path / "chain.npz"
        save_snapshot(sim, path)
        langevin = next(
            fix for fix in sim.fixes if hasattr(fix, "rng")
        )
        want = langevin.rng.bit_generator.state
        got = load_snapshot(path).state["fixes"]
        restored = [
            entry["state"] for entry in got if "rng_state" in entry["state"]
        ]
        assert restored, "no fix captured an RNG stream"
        assert _roundtrip_json(want) in [
            entry.get("rng_state") for entry in restored
        ]

    def test_chute_contact_history_round_trips_nonempty(self, tmp_path):
        """After enough steps the granular store is non-trivial and kept."""
        sim = _run(_build("chute"), 8)
        path = tmp_path / "chute.npz"
        save_snapshot(sim, path)
        snap = load_snapshot(path)
        assert snap.histories, "chute should carry a contact-history slot"
        keys, values = next(iter(snap.histories.values()))
        assert keys.shape[0] == values.shape[0]
        assert values.shape[1:] == (3,)

    def test_load_system_matches_snapshot(self, tmp_path):
        sim = _run(_build("lj"), 3)
        path = tmp_path / "lj.npz"
        save_snapshot(sim, path)
        system, step = load_system(path)
        assert step == 3
        _assert_system_equal(system, sim.system)


class TestErrorPaths:
    def _valid_snapshot(self, tmp_path):
        sim = _run(_build("lj"), 2)
        path = tmp_path / "valid.npz"
        save_snapshot(sim, path)
        return sim, path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="unreadable"):
            load_snapshot(tmp_path / "nope.npz")

    def test_corrupted_file(self, tmp_path):
        _, path = self._valid_snapshot(tmp_path)
        rng = np.random.default_rng(7)
        path.write_bytes(rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes())
        with pytest.raises(SnapshotError, match="unreadable"):
            load_snapshot(path)

    def test_truncated_file(self, tmp_path):
        _, path = self._valid_snapshot(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="unreadable"):
            load_snapshot(path)

    def test_unknown_format_version(self, tmp_path):
        _, path = self._valid_snapshot(tmp_path)
        bad = tmp_path / "v99.npz"
        _resave_with_version(path, bad, 99)
        with pytest.raises(SnapshotError, match="format"):
            load_snapshot(bad)

    def test_wrong_atom_count_rejected(self, tmp_path):
        _, path = self._valid_snapshot(tmp_path)
        other = get_benchmark("lj").build(864)
        other.setup()
        assert other.system.n_atoms != SIZES["lj"]
        with pytest.raises(SnapshotError, match="atoms"):
            restore_simulation(other, path)


class TestDeflatedV2Compatibility:
    """Snapshots are stored npz now; v2 files deflated by earlier
    versions (what ``np.savez_compressed`` writes) are the same format
    to ``np.load`` and must keep restoring bit for bit."""

    @pytest.mark.parametrize("name", ["lj", "chute"])
    def test_deflated_v2_file_restores_bitwise(self, name, tmp_path):
        straight = _run(_build(name), 12)
        first = _run(_build(name), 6)
        stored = save_snapshot(first, tmp_path / "stored.npz")
        deflated = tmp_path / "deflated.npz"
        _resave_with_version(stored, deflated, FORMAT_VERSION)
        assert deflated.stat().st_size < stored.stat().st_size
        resumed = _build(name)
        restore_simulation(resumed, deflated)
        for _ in range(6):
            resumed.step()
        assert resumed.step_number == straight.step_number
        for field in ("positions", "velocities", "forces"):
            assert (
                getattr(resumed.system, field).tobytes()
                == getattr(straight.system, field).tobytes()
            ), field


class TestV1Compatibility:
    def _make_v1(self, tmp_path):
        sim = _run(_build("lj"), 4)
        v2 = tmp_path / "v2.npz"
        save_snapshot(sim, v2)
        v1 = tmp_path / "v1.npz"
        _resave_with_version(v2, v1, 1, strip_v2_keys=True)
        return sim, v1

    def test_v1_detected_and_particle_state_loads(self, tmp_path):
        sim, v1 = self._make_v1(tmp_path)
        snap = load_snapshot(v1)
        assert snap.version == 1
        assert snap.state == {}
        assert snap.neighbor_build is None
        assert snap.histories == {}
        _assert_system_equal(snap.system, sim.system)

    def test_restore_rejects_v1_by_default(self, tmp_path):
        _, v1 = self._make_v1(tmp_path)
        fresh = _build("lj")
        fresh.setup()
        with pytest.raises(SnapshotError, match="v1"):
            restore_simulation(fresh, v1)

    def test_v1_refusal_offers_no_opt_in(self, tmp_path):
        _, v1 = self._make_v1(tmp_path)
        fresh = _build("lj")
        fresh.setup()
        with pytest.raises(SnapshotError) as excinfo:
            restore_simulation(fresh, v1)
        message = str(excinfo.value)
        assert "format v1" in message and "particle state only" in message
        assert "allow_v1" not in message


def _jsonify(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(type(obj).__name__)


def _roundtrip_json(obj):
    return json.loads(json.dumps(obj, default=_jsonify))


def _resave_with_version(src, dst, version, strip_v2_keys=False):
    """Rewrite a valid v2 file under a different format_version tag."""
    with np.load(src) as data:
        payload = {key: data[key] for key in data.files}
    payload["format_version"] = np.array([version])
    if strip_v2_keys:
        for key in list(payload):
            if key.startswith(("hist", "neigh_")) or key in (
                "state_json",
                "potential_energy",
                "virial",
            ):
                payload.pop(key)
    with open(dst, "wb") as handle:
        np.savez_compressed(handle, **payload)
