"""The unified run-configuration surface of the engine.

:class:`RunConfig` collects what used to be a growing sprawl of
per-call keyword arguments — step count, precision mode, kernel
backend, checkpoint wiring, tracing, timer resets — into one dataclass
consumed by :meth:`repro.md.simulation.Simulation.run`::

    from repro.md import RunConfig, Simulation

    sim = Simulation(system, [lj], precision="mixed")
    sim.run(RunConfig(steps=1000, reset_timers=True))

A bare step count — ``sim.run(1000)`` — is shorthand for
``RunConfig(1000)``; ``run`` takes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.md.precision import Precision, parse_precision

if TYPE_CHECKING:
    from repro.md.kernels import KernelBackend

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Everything one ``Simulation.run`` call can configure.

    Parameters
    ----------
    steps:
        Number of timesteps to advance.
    precision:
        Optional precision mode (:class:`Precision` or case-insensitive
        name).  ``None`` keeps the simulation's current policy; a
        different mode re-precisions the serial engine in place before
        stepping (parallel executors must be constructed with their
        mode, since the shared-memory buffers are typed at start-up).
    backend:
        Optional kernel-backend override (registry name or
        :class:`~repro.md.kernels.base.KernelBackend` instance) applied
        before stepping.  ``None`` keeps the current backend.
    checkpoint:
        Optional :class:`repro.reliability.CheckpointManager` (anything
        with ``maybe_checkpoint(simulation)``), consulted after every
        completed step.
    digest:
        Optional :class:`repro.reliability.DigestRecorder` (anything
        with ``maybe_record(simulation)``), consulted after every
        completed step — the hash-chained trajectory digest hook
        (``docs/REPRODUCIBILITY.md``).
    tracer:
        Optional tracer spec re-wired through
        :meth:`~repro.md.simulation.Simulation.attach_tracer` before
        stepping.  ``None`` keeps the current tracer.
    reset_timers:
        Clear the task breakdown (and accumulated ``step_seconds``)
        before stepping, so warmup phases don't pollute reported
        fractions.
    """

    steps: int
    precision: Precision | str | None = None
    backend: "KernelBackend | str | None" = None
    checkpoint: Any = None
    digest: Any = None
    tracer: Any = None
    reset_timers: bool = False

    def __post_init__(self) -> None:
        self.steps = int(self.steps)
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.precision is not None:
            # Fail fast on typos, before any stepping happens.
            self.precision = parse_precision(self.precision)
