"""Supervised recovery: run a simulation to completion despite crashes.

:class:`ResilientRunner` wraps ``Simulation.run`` with the recovery
state machine documented in ``docs/RELIABILITY.md``::

    RUNNING --ParallelEngineError--> FAILED
    FAILED  --restarts <= max_restarts--> backoff, restore latest
            checkpoint, respawn the worker pool  --> RUNNING
    FAILED  --restarts  > max_restarts--> degrade to the serial
            executor, restore latest checkpoint  --> RUNNING (serial)

Worker death is detected by the engine (the process sentinel for a
killed process — at once — and the reply timeout for a hang) and
surfaces as
:class:`~repro.parallel.engine.ParallelEngineError`; the failed pool is
already torn down respawnable by the time the error reaches this layer,
so "respawn" is simply the next dispatch after the checkpoint restore.
Restores go through :meth:`CheckpointManager.restore_latest`, which
skips corrupted files — including the partial temp file a crash during
a checkpoint write leaves behind.

Because the restore is exact (format v2) and the engine is bitwise
deterministic across worker counts, a recovered parallel run finishes
bit-for-bit identical to the uninterrupted one.  Only the final
degradation to the serial executor abandons bitwise equality (serial
half-list summation order differs), staying within ~1e-10 relative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.md.config import RunConfig
from repro.md.simulation import SerialForceExecutor, Simulation
from repro.parallel.engine import ParallelEngineError
from repro.reliability.checkpoint import CheckpointManager

__all__ = ["ResilientRunner", "RecoveryEvent"]


@dataclass
class RecoveryEvent:
    """One entry of the supervisor's recovery log."""

    #: Step the failure surfaced at (the step being executed).
    step: int
    #: Action taken: ``"respawn"`` or ``"degrade-serial"``.
    action: str
    #: Step of the checkpoint the run resumed from.
    resumed_from_step: int
    #: Restart ordinal (1-based).
    restart_index: int
    #: First line of the engine error.
    error: str


class ResilientRunner:
    """Drive ``simulation.run`` under checkpointing with crash recovery.

    Parameters
    ----------
    simulation:
        The simulation to drive.  With a
        :class:`~repro.parallel.engine.ParallelForceExecutor` attached,
        worker failures are recovered; with the serial executor this
        degenerates to a plain checkpointed run.
    checkpoint:
        The :class:`CheckpointManager` providing the periodic cadence
        and the restore points.
    max_restarts:
        Worker-pool respawns allowed before degrading to the serial
        executor.
    backoff_seconds:
        Base of the exponential backoff slept before restart ``k``
        (``backoff_seconds * 2**(k-1)``).
    digest:
        Optional :class:`~repro.reliability.certify.digest.
        DigestRecorder` (or :class:`~repro.reliability.certify.record.
        CertificationRecorder`) recording the hash-chained trajectory
        digests *through* recovery: a bitwise respawn re-executes steps
        whose digests are already recorded, which the chain verifies
        idempotently (a divergent re-execution fails loudly), while the
        non-bitwise degrade-to-serial path rewinds the chain to the
        resume step so the abandoned parallel tail is re-recorded.
    metrics:
        Optional registry; failures/restarts/degradations are counted
        (``md_worker_failures_total``, ``md_restarts_total``,
        ``md_degradations_total``).
    logger:
        Optional ``callable(str)`` receiving one line per recovery
        action (e.g. ``print`` or ``logging.info``).
    """

    def __init__(
        self,
        simulation: Simulation,
        checkpoint: CheckpointManager,
        *,
        max_restarts: int = 2,
        backoff_seconds: float = 0.05,
        digest=None,
        metrics=None,
        logger=None,
    ) -> None:
        self.simulation = simulation
        self.checkpoint = checkpoint
        self.max_restarts = int(max_restarts)
        self.backoff_seconds = float(backoff_seconds)
        self.digest = digest
        self.metrics = metrics
        self.logger = logger
        self.events: list[RecoveryEvent] = []
        self.degraded = False

    def _log(self, message: str) -> None:
        if self.logger is not None:
            self.logger(message)

    def run(self, n_steps: int) -> list[RecoveryEvent]:
        """Run ``n_steps`` more steps, recovering from worker failures.

        Returns the recovery log (empty when nothing failed).  Raises
        the final :class:`ParallelEngineError` only if even the serial
        degradation path cannot make progress (which would indicate a
        bug, not a worker fault).
        """
        simulation = self.simulation
        target = simulation.step_number + int(n_steps)
        # A baseline checkpoint guarantees a restore point even when the
        # first failure lands before the first periodic write.
        if self.checkpoint.latest() is None:
            self.checkpoint.write(simulation)
        restarts = 0
        while simulation.step_number < target:
            try:
                simulation.run(
                    RunConfig(
                        steps=target - simulation.step_number,
                        checkpoint=self.checkpoint,
                        digest=self.digest,
                    )
                )
            except ParallelEngineError as exc:
                failed_step = simulation.step_number
                restarts += 1
                if self.metrics is not None:
                    self.metrics.counter("md_worker_failures_total").inc()
                if restarts > self.max_restarts:
                    self._degrade_to_serial()
                    action = "degrade-serial"
                    if self.metrics is not None:
                        self.metrics.counter("md_degradations_total").inc()
                else:
                    action = "respawn"
                    if self.metrics is not None:
                        self.metrics.counter("md_restarts_total").inc()
                    time.sleep(self.backoff_seconds * 2 ** (restarts - 1))
                _, snapshot = self.checkpoint.restore_latest(simulation)
                if action == "degrade-serial" and self.digest is not None:
                    # Serial continuation is legitimately not bitwise
                    # with the parallel prefix: the chain entries past
                    # the resume point describe a trajectory this run
                    # will no longer produce, so drop them for
                    # re-recording instead of tripping the idempotent
                    # re-execution check.
                    self.digest.rewind_to(snapshot.step_number)
                event = RecoveryEvent(
                    step=failed_step,
                    action=action,
                    resumed_from_step=snapshot.step_number,
                    restart_index=restarts,
                    error=str(exc).splitlines()[0],
                )
                self.events.append(event)
                self._log(
                    f"[reliability] step {failed_step}: {event.error} -> "
                    f"{action}, resuming from step {snapshot.step_number} "
                    f"(restart {restarts}/{self.max_restarts})"
                )
        return self.events

    def _degrade_to_serial(self) -> None:
        """Replace the parallel executor with the serial one for good."""
        old = self.simulation.force_executor
        try:
            old.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        serial = SerialForceExecutor()
        serial.bind(self.simulation)
        self.simulation.force_executor = serial
        self.degraded = True
