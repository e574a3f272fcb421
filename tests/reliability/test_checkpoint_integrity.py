"""CheckpointManager's CRC/size integrity index (ISSUE 9 small fix).

A partially-written or bit-flipped retained checkpoint must be
diagnosed *as such* — truncation vs corruption, named file — instead
of surfacing as an arbitrary numpy deserialization error, and
``restore_latest`` must keep its skip-and-try-older contract with the
damaged file counted out by the integrity check rather than by a lucky
parse failure.
"""

import json
import zipfile
import zlib

import numpy as np
import pytest

from repro.md import RunConfig
from repro.md.restart import (
    SnapshotError,
    load_snapshot,
    restore_simulation,
    save_snapshot,
)
from repro.reliability import CheckpointIntegrityError, CheckpointManager
from repro.suite import get_benchmark


@pytest.fixture()
def run(tmp_path):
    sim = get_benchmark("lj").build(150)
    manager = CheckpointManager(tmp_path, every=4)
    sim.run(RunConfig(steps=12, checkpoint=manager))
    yield sim, manager
    sim.close()


class TestIntegrityIndex:
    def test_every_write_is_recorded_and_verifies(self, run):
        _, manager = run
        assert manager.integrity_path().exists()
        for path in manager.checkpoints():
            assert manager.verify_integrity(path) is True

    def test_bit_flip_is_diagnosed_as_corruption(self, run):
        _, manager = run
        target = manager.checkpoints()[-1]
        data = bytearray(target.read_bytes())
        data[len(data) // 3] ^= 0x01
        target.write_bytes(bytes(data))
        with pytest.raises(CheckpointIntegrityError, match="CRC32"):
            manager.verify_integrity(target)

    def test_truncation_is_diagnosed_as_truncation(self, run):
        _, manager = run
        target = manager.checkpoints()[-1]
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            manager.verify_integrity(target)

    def test_legacy_directory_is_unverified_not_failed(self, run):
        _, manager = run
        manager.integrity_path().unlink()
        for path in manager.checkpoints():
            assert manager.verify_integrity(path) is False

    def test_pruned_files_leave_the_index(self, run):
        sim, manager = run
        import json

        index = json.loads(manager.integrity_path().read_text())
        names = {p.name for p in manager.checkpoints()}
        assert set(index) == names  # pruned entries were dropped

    def test_restore_latest_skips_damaged_newest(self, run):
        sim, manager = run
        newest = manager.checkpoints()[-1]
        older = manager.checkpoints()[-2]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        path, snapshot = manager.restore_latest(sim)
        assert path == older
        assert snapshot.step_number == int(older.stem.rsplit("-", 1)[-1])

    def test_error_names_the_file(self, run):
        _, manager = run
        target = manager.checkpoints()[0]
        target.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointIntegrityError, match=target.name):
            manager.verify_integrity(target)


def _inside_positions(path, sim_positions):
    """Offset of a byte in the middle of the file's ``positions`` array
    (members are stored, so the array's raw bytes appear verbatim) —
    never a zip header or padding, where a flip could go unnoticed."""
    raw = np.ascontiguousarray(sim_positions).tobytes()
    start = path.read_bytes().find(raw)
    assert start > 0, "positions are not stored verbatim in the file"
    return start + len(raw) // 2


class TestStoredSnapshots:
    """Checkpoints are stored (not deflated) npz since the float64
    payload does not compress; damage detection must not have depended
    on zlib choking, and files deflated by earlier versions must load."""

    def test_one_writer_and_it_stores(self, run, tmp_path):
        sim, manager = run
        snapshot = save_snapshot(sim, tmp_path / "direct" / "snap.npz")
        for path in (snapshot, manager.latest()):
            with zipfile.ZipFile(path) as archive:
                assert archive.testzip() is None
                assert {info.compress_type for info in archive.infolist()} == {
                    zipfile.ZIP_STORED
                }
        # Same step, same payload, same writer: the same members (the
        # raw files differ by the zip headers' timestamps at most).
        with np.load(snapshot) as direct, np.load(manager.latest()) as managed:
            assert sorted(direct.files) == sorted(managed.files)
            for key in direct.files:
                assert direct[key].tobytes() == managed[key].tobytes()

    @pytest.mark.parametrize("with_index", [True, False])
    def test_flipped_byte_in_a_stored_checkpoint(self, run, with_index):
        """With the index the manager names the damage; without it (a
        legacy directory, a bare ``save_snapshot`` file) the zip
        member's own CRC-32 still refuses the array."""
        sim, manager = run
        target = manager.latest()
        offset = _inside_positions(target, sim.system.positions)
        data = bytearray(target.read_bytes())
        data[offset] ^= 0x01
        target.write_bytes(bytes(data))
        if with_index:
            with pytest.raises(CheckpointIntegrityError, match="CRC32"):
                manager.verify_integrity(target)
        else:
            manager.integrity_path().unlink()
            assert manager.verify_integrity(target) is False
            with pytest.raises(SnapshotError, match="unreadable snapshot") as info:
                load_snapshot(target)
            assert not isinstance(info.value, CheckpointIntegrityError)
        # Either way recovery skips it for the next-older file.
        path, _ = manager.restore_latest(sim)
        assert path == manager.checkpoints()[-2]

    @pytest.mark.parametrize("with_index", [True, False])
    def test_truncated_stored_checkpoint(self, run, with_index):
        sim, manager = run
        target = manager.latest()
        cut = _inside_positions(target, sim.system.positions)
        target.write_bytes(target.read_bytes()[:cut])
        if with_index:
            with pytest.raises(CheckpointIntegrityError, match="truncated"):
                manager.verify_integrity(target)
        else:
            manager.integrity_path().unlink()
            with pytest.raises(SnapshotError, match="unreadable snapshot"):
                restore_simulation(sim, target)
        path, _ = manager.restore_latest(sim)
        assert path == manager.checkpoints()[-2]

    def test_deflated_checkpoint_directory_still_restores_bitwise(self, run):
        """A directory written before this change: every file deflated,
        the index recording the deflated bytes.  ``restore_latest``
        verifies and restores it, and the continued run is bitwise the
        uninterrupted one."""
        sim, manager = run
        index = {}
        for path in manager.checkpoints():
            with np.load(path) as data:
                payload = {key: data[key] for key in data.files}
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **payload)
            with zipfile.ZipFile(path) as archive:
                assert zipfile.ZIP_DEFLATED in {
                    info.compress_type for info in archive.infolist()
                }
            raw = path.read_bytes()
            index[path.name] = {"crc32": zlib.crc32(raw), "bytes": len(raw)}
        manager.integrity_path().write_text(json.dumps(index))

        sim.run(5)  # the uninterrupted run: steps 12 -> 17
        resumed = get_benchmark("lj").build(150)
        try:
            path, snapshot = manager.restore_latest(resumed)
            assert manager.verify_integrity(path) is True
            assert snapshot.step_number == 12
            resumed.run(5)
            for name in ("positions", "velocities", "forces"):
                assert (
                    getattr(resumed.system, name).tobytes()
                    == getattr(sim.system, name).tobytes()
                )
        finally:
            resumed.close()
