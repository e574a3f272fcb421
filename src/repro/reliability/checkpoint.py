"""Periodic, atomic, retained checkpoints of a running simulation.

:class:`CheckpointManager` is the policy layer over
:mod:`repro.md.restart`'s format-v2 files (``snapshot_payload`` into
``write_snapshot``, the writer ``save_snapshot`` uses too):

* **cadence** — ``maybe_checkpoint`` writes on every step divisible by
  ``every`` (it plugs straight into ``RunConfig(checkpoint=...)``);
* **atomicity** — payloads are written to a hidden temp file in the
  same directory and ``os.replace``d into place, so a crash mid-write
  can never leave a truncated file under a checkpoint name;
* **retention** — only the newest ``keep_last`` checkpoints are kept;
* **integrity** — every write records the file's CRC32 + byte size in
  ``{prefix}-integrity.json``; ``verify_integrity`` (called by
  ``restore_latest`` and by ``repro certify``) diagnoses a damaged
  retained file as *truncated* or *bit-corrupted*
  (:class:`CheckpointIntegrityError`) instead of letting it fail deep
  inside numpy deserialization;
* **recovery** — ``restore_latest`` walks the retained files newest
  first and restores the first one that parses, skipping corrupted
  leftovers;
* **observability** — writes are traced (``checkpoint.write`` spans,
  in the tracer of the simulation being checkpointed) and counted
  (``md_checkpoints_total``, ``md_checkpoint_write_seconds``,
  ``md_checkpoint_bytes``) when a registry is attached;
* **fault injection** — every write asks the force executor for a
  checkpoint-phase fault (``ForceExecutor.take_fault``; the parallel
  engine owns the :class:`~repro.reliability.faultplan.FaultPlan`).  A
  fault simulates the process dying mid-write: a partial temp file is
  left behind, no checkpoint is recorded, and the engine delivers the
  fault's kind to the worker it names with its next command, so the
  run aborts the way a real crash would.
"""

from __future__ import annotations

import json
import time
import zlib
from pathlib import Path

from repro.atomicio import atomic_write, temp_path
from repro.md.restart import (
    Snapshot,
    SnapshotError,
    restore_simulation,
    snapshot_payload,
    write_snapshot,
)

__all__ = ["CheckpointManager", "CheckpointIntegrityError"]


class CheckpointIntegrityError(SnapshotError):
    """A retained checkpoint's bytes do not match its CRC/size record.

    Subclasses :class:`~repro.md.restart.SnapshotError` so recovery's
    skip-and-try-older loop treats a damaged file exactly like an
    unparseable one — but callers that verify *explicitly* (``repro
    certify``) get a diagnosis naming the damage (truncation vs bit
    corruption) instead of an arbitrary numpy deserialization error.
    """


class CheckpointManager:
    """Write/retain/restore policy for periodic simulation checkpoints.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created if missing).
    every:
        Checkpoint every N steps; ``0`` disables the periodic cadence
        (explicit :meth:`write` calls still work).
    keep_last:
        Retention depth; older checkpoints are deleted after each write.
    prefix:
        Filename prefix; files are ``{prefix}-{step:09d}.npz``.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 0,
        keep_last: int = 3,
        prefix: str = "ckpt",
        metrics=None,
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.keep_last = int(keep_last)
        self.prefix = str(prefix)
        self.metrics = metrics
        self.writes = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{int(step):09d}.npz"

    def integrity_path(self) -> Path:
        """The CRC/size index covering this prefix's checkpoints."""
        return self.directory / f"{self.prefix}-integrity.json"

    def checkpoints(self) -> list[Path]:
        """Retained checkpoint files, oldest first (sorted by step)."""
        return sorted(self.directory.glob(f"{self.prefix}-*.npz"))

    def latest(self) -> Path | None:
        files = self.checkpoints()
        return files[-1] if files else None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, simulation) -> Path | None:
        """Periodic hook for ``Simulation.run``: write on the cadence."""
        if self.every <= 0 or simulation.step_number % self.every != 0:
            return None
        return self.write(simulation)

    def write(self, simulation) -> Path | None:
        """Checkpoint the simulation's current step atomically.

        Returns the final path, or ``None`` when a checkpoint-phase
        fault consumed the write (the crash-mid-write simulation).
        """
        step = simulation.step_number
        final = self.path_for(step)
        start = time.perf_counter()
        with simulation.tracer.span("checkpoint.write", "checkpoint"):
            # Gathering the payload may round-trip worker state (the
            # parallel executor collects contact histories from its
            # workers), so it happens before any file I/O.
            payload = snapshot_payload(simulation)
            if simulation.force_executor.take_fault("checkpoint") is not None:
                # Simulate dying mid-write: a partial temp file is left
                # on disk (restore_latest must skip it), the final name
                # never appears, and the executor has armed the fault
                # for its next dispatch so the run aborts like a real
                # crash.
                temp_path(final).write_bytes(b"\x00" * 512)
                return None
            atomic_write(final, lambda handle: write_snapshot(handle, payload))
            written = final.read_bytes()
            self._record_integrity(final.name, zlib.crc32(written), len(written))
        elapsed = time.perf_counter() - start
        self.writes += 1
        if self.metrics is not None:
            self.metrics.counter("md_checkpoints_total").inc()
            self.metrics.histogram("md_checkpoint_write_seconds").observe(elapsed)
            self.metrics.gauge("md_checkpoint_bytes").set(len(written))
        self._prune()
        return final

    def _prune(self) -> None:
        files = self.checkpoints()
        dropped = []
        for stale in files[: -self.keep_last]:
            try:
                stale.unlink()
            except FileNotFoundError:  # pragma: no cover - lost race
                pass
            dropped.append(stale.name)
        if dropped:
            index = self._load_index()
            for name in dropped:
                index.pop(name, None)
            self._save_index(index)

    # ------------------------------------------------------------------
    # Integrity (CRC32 + size per retained file)
    # ------------------------------------------------------------------
    def _load_index(self) -> dict:
        path = self.integrity_path()
        if not path.exists():
            return {}
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            return {}  # damaged index: files fall back to unverified
        return data if isinstance(data, dict) else {}

    def _save_index(self, index: dict) -> None:
        text = json.dumps(index, indent=2, sort_keys=True) + "\n"
        atomic_write(self.integrity_path(), text)

    def _record_integrity(self, name: str, crc: int, size: int) -> None:
        index = self._load_index()
        index[name] = {"crc32": int(crc), "bytes": int(size)}
        self._save_index(index)

    def verify_integrity(self, path: str | Path) -> bool:
        """Check one retained checkpoint against its CRC/size record.

        Returns ``True`` when the bytes match the record and ``False``
        when the file predates the integrity index (legacy directories
        — nothing to check against).  Raises
        :class:`CheckpointIntegrityError` naming the damage when the
        record exists but the bytes disagree: a size mismatch is
        diagnosed as truncation/growth, a CRC mismatch as bit
        corruption — *before* numpy ever tries to deserialize them.
        """
        path = Path(path)
        record = self._load_index().get(path.name)
        if record is None:
            return False
        if not path.exists():
            raise CheckpointIntegrityError(
                f"checkpoint {path} is recorded in the integrity index "
                "but missing on disk"
            )
        size = path.stat().st_size
        if size != int(record["bytes"]):
            raise CheckpointIntegrityError(
                f"checkpoint {path} is {size} bytes but was written as "
                f"{record['bytes']} bytes: the file was truncated or "
                "appended to after the write"
            )
        crc = zlib.crc32(path.read_bytes())
        if crc != int(record["crc32"]):
            raise CheckpointIntegrityError(
                f"checkpoint {path} fails its CRC32 "
                f"({crc:#010x} vs recorded {int(record['crc32']):#010x}): "
                "the file's bytes were altered after the write"
            )
        return True

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore_latest(self, simulation) -> tuple[Path, Snapshot]:
        """Restore the newest checkpoint that parses.

        Corrupted or truncated files (e.g. the artifact of a crash
        mid-write) are skipped with the next-older file tried instead;
        :class:`~repro.md.restart.SnapshotError` is raised only when no
        retained checkpoint is restorable.
        """
        last_error: SnapshotError | None = None
        for path in reversed(self.checkpoints()):
            try:
                self.verify_integrity(path)
                snapshot = restore_simulation(simulation, path)
            except SnapshotError as exc:
                last_error = exc
                continue
            return path, snapshot
        detail = f" (last error: {last_error})" if last_error else ""
        raise SnapshotError(
            f"no restorable checkpoint under {self.directory}{detail}"
        )
