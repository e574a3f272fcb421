"""Tests for the CheckpointManager policy layer: cadence, atomicity,
retention, corrupted-file recovery, and metrics."""

import numpy as np
import pytest

from repro.md import RunConfig
from repro.md.restart import SnapshotError
from repro.observability import MetricsRegistry
from repro.observability.tracer import TRACE_ENV_VAR
from repro.reliability import CheckpointManager
from repro.suite import get_benchmark


def _sim(n_atoms=400):
    sim = get_benchmark("lj").build(n_atoms)
    sim.setup()
    return sim


class TestCadence:
    def test_periodic_writes_during_run(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5, keep_last=10)
        sim.run(RunConfig(20, checkpoint=manager))
        assert manager.writes == 4
        steps = [int(p.stem.split("-")[-1]) for p in manager.checkpoints()]
        assert steps == [5, 10, 15, 20]

    def test_every_zero_disables_cadence(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=0)
        assert manager.maybe_checkpoint(sim) is None
        sim.run(RunConfig(5, checkpoint=manager))
        assert manager.writes == 0
        assert manager.checkpoints() == []
        # Explicit writes still work with the cadence off.
        assert manager.write(sim) is not None
        assert manager.writes == 1

    def test_off_cadence_step_skipped(self, tmp_path):
        sim = _sim()
        sim.run(3)
        manager = CheckpointManager(tmp_path, every=5)
        assert manager.maybe_checkpoint(sim) is None


class TestRetentionAndAtomicity:
    def test_keep_last_prunes_oldest(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5, keep_last=2)
        sim.run(RunConfig(20, checkpoint=manager))
        assert manager.writes == 4
        steps = [int(p.stem.split("-")[-1]) for p in manager.checkpoints()]
        assert steps == [15, 20]
        assert manager.latest() == manager.path_for(20)

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointManager(tmp_path, keep_last=0)

    def test_no_temp_files_left_behind(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5)
        sim.run(RunConfig(10, checkpoint=manager))
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_stray_temp_file_invisible_to_recovery(self, tmp_path):
        """A temp file abandoned by a crash is not a checkpoint."""
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=0)
        manager.write(sim)
        stray = tmp_path / f".{manager.path_for(999).name}.tmp"
        stray.write_bytes(b"\x00" * 512)
        assert manager.checkpoints() == [manager.path_for(0)]


class TestRecovery:
    def test_restore_latest_round_trips(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5, keep_last=10)
        sim.run(RunConfig(10, checkpoint=manager))
        reference = sim.system.positions.copy()
        sim.run(7)  # wander off
        path, snapshot = manager.restore_latest(sim)
        assert path == manager.path_for(10)
        assert snapshot.step_number == 10
        assert sim.step_number == 10
        assert np.array_equal(sim.system.positions, reference)

    def test_restore_latest_skips_corrupted_newest(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5, keep_last=10)
        sim.run(RunConfig(10, checkpoint=manager))
        manager.path_for(10).write_bytes(b"garbage")
        path, snapshot = manager.restore_latest(sim)
        assert path == manager.path_for(5)
        assert snapshot.step_number == 5
        assert sim.step_number == 5

    def test_restore_latest_raises_when_all_corrupt(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path, every=5, keep_last=10)
        sim.run(RunConfig(10, checkpoint=manager))
        for path in manager.checkpoints():
            path.write_bytes(b"garbage")
        with pytest.raises(SnapshotError, match="no restorable checkpoint"):
            manager.restore_latest(sim)

    def test_restore_latest_raises_when_empty(self, tmp_path):
        sim = _sim()
        manager = CheckpointManager(tmp_path)
        with pytest.raises(SnapshotError, match="no restorable checkpoint"):
            manager.restore_latest(sim)


class TestObservability:
    def test_metrics_counted(self, tmp_path):
        registry = MetricsRegistry()
        sim = _sim()
        manager = CheckpointManager(
            tmp_path, every=5, keep_last=10, metrics=registry
        )
        sim.run(RunConfig(10, checkpoint=manager))
        assert registry.counter("md_checkpoints_total").value == 2
        assert registry.gauge("md_checkpoint_bytes").value > 0

    def test_writes_land_in_the_runs_own_trace(self, tmp_path, monkeypatch):
        """One tracer per run: with ``$REPRO_TRACE`` set, the writes are
        spans of the checkpointed simulation's trace, between its steps."""
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        sim = _sim(500)
        manager = CheckpointManager(tmp_path, every=2)
        sim.run(RunConfig(4, checkpoint=manager))
        writes = [
            (r.cat, r.depth)
            for r in sim.tracer.records()
            if r.name == "checkpoint.write"
        ]
        assert writes == [("checkpoint", 0)] * 2
