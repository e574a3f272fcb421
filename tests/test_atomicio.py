"""The atomic-write contract, and a full disk injected under it.

``repro.atomicio.atomic_write`` is the one writer behind checkpoints,
integrity indexes, digest chains, manifests, spool files, cache records
and snapshots.  Its promise: after a write that raises, ``path`` holds
the bytes it held before and the directory holds no temp file.  The
ENOSPC cases are the first entries of ROADMAP item 6's injected-failure
list ("full disk").
"""

import errno
import json

import pytest

from repro import atomicio
from repro.atomicio import atomic_write, temp_path


class FullDisk:
    """A binary file that accepts ``room`` bytes, then raises ENOSPC."""

    def __init__(self, handle, room):
        self._handle, self._room = handle, room

    def write(self, data):
        data = bytes(data)
        if len(data) > self._room:
            self._handle.write(data[: self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Arm it, and every ``atomic_write`` dies of ENOSPC 64 bytes in."""

    def arm():
        monkeypatch.setattr(
            atomicio, "open", lambda *a, **kw: FullDisk(open(*a, **kw), 64),
            raising=False,
        )

    return arm


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


class TestContract:
    def test_text_bytes_and_writer_forms(self, tmp_path):
        target = tmp_path / "deep" / "er" / "file.bin"  # parents are created
        assert atomic_write(target, "text\n") == target
        assert target.read_bytes() == b"text\n"
        atomic_write(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        atomic_write(target, lambda handle: handle.write(b"from a writer"))
        assert target.read_bytes() == b"from a writer"
        assert _listing(target.parent) == ["file.bin"]

    def test_temp_file_is_a_hidden_sibling(self, tmp_path):
        temp = temp_path(tmp_path / "ckpt-000000010.npz")
        assert temp.parent == tmp_path
        assert temp.name.startswith(".ckpt-000000010.npz.tmp")

    def test_failing_writer_keeps_the_old_bytes_and_no_temp(self, tmp_path):
        target = tmp_path / "record.json"
        atomic_write(target, "old")

        def dies_half_way(handle):
            handle.write(b"ne")
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError) as caught:
            atomic_write(target, dies_half_way)
        assert caught.value.errno == errno.ENOSPC
        assert target.read_text() == "old"
        assert _listing(tmp_path) == ["record.json"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ZeroDivisionError):
            atomic_write(tmp_path / "new.json", lambda handle: 1 / 0)
        assert _listing(tmp_path) == []


class TestFullDisk:
    """ENOSPC half-way through a checkpoint, a cache record, a spool reply."""

    def test_checkpoint(self, tmp_path, full_disk):
        from repro.reliability import CheckpointManager
        from repro.suite import get_benchmark

        sim = get_benchmark("lj").build(150)
        manager = CheckpointManager(tmp_path, every=0)
        final = manager.write(sim)
        before, listing = final.read_bytes(), _listing(tmp_path)

        full_disk()
        with pytest.raises(OSError) as caught:
            manager.write(sim)  # same step: would replace `final`
        assert caught.value.errno == errno.ENOSPC
        assert final.read_bytes() == before
        assert _listing(tmp_path) == listing  # no temp, no new name
        assert manager.verify_integrity(final) is True
        assert manager.writes == 1

    def test_cache_record(self, tmp_path, full_disk):
        from repro.service import JobSpec, ResultCache, execute_job

        result = execute_job(JobSpec(benchmark="lj", n_atoms=150, steps=2))
        cache = ResultCache(directory=tmp_path)
        cache.put(result.key, result)
        path = cache.path_for(result.key)
        before = path.read_bytes()

        full_disk()
        with pytest.raises(OSError) as caught:
            cache.put(result.key, result)
        assert caught.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert _listing(tmp_path) == [path.name]
        # A fresh cache over the directory still serves the record.
        assert ResultCache(directory=tmp_path).get(result.key).key == result.key

    def test_spool_reply(self, tmp_path, full_disk):
        from repro.service import SpoolServer

        server = SpoolServer(tmp_path, service=None)
        server._answer("t1", error="the first answer " + "x" * 80)
        reply = tmp_path / "tickets" / "t1.json"
        before = reply.read_bytes()

        full_disk()
        with pytest.raises(OSError) as caught:
            server._answer("t1", error="a second answer " + "y" * 80)
        assert caught.value.errno == errno.ENOSPC
        assert reply.read_bytes() == before
        assert json.loads(before)["error"].startswith("the first answer")
        assert _listing(reply.parent) == ["t1.json"]
