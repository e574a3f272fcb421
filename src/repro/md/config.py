"""The unified run-configuration surface of the engine.

:class:`RunConfig` collects the per-call options of a run — step
count, checkpoint and digest hooks, timer resets — into one dataclass
consumed by :meth:`repro.md.simulation.Simulation.run`::

    from repro.md import RunConfig, Simulation

    sim = Simulation(system, [lj])
    sim.set_precision("mixed")
    sim.run(RunConfig(steps=1000, reset_timers=True))

A bare step count — ``sim.run(1000)`` — is shorthand for
``RunConfig(1000)``; ``run`` takes nothing else.  What a simulation
*is* — precision mode, kernel backend, tracer — is set once, through
its ``set_precision`` / ``set_backend`` / ``attach_tracer`` setters,
not per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Everything one ``Simulation.run`` call can configure.

    Parameters
    ----------
    steps:
        Number of timesteps to advance.
    checkpoint:
        Optional :class:`repro.reliability.CheckpointManager` (anything
        with ``maybe_checkpoint(simulation)``), consulted after every
        completed step.
    digest:
        Optional :class:`repro.reliability.DigestRecorder` (anything
        with ``maybe_record(simulation)``), consulted after every
        completed step — the hash-chained trajectory digest hook
        (``docs/REPRODUCIBILITY.md``).
    reset_timers:
        Clear the task breakdown (and with it ``timers.total``, the
        stepped wall clock) before stepping, so warmup phases don't
        pollute reported fractions.
    """

    steps: int
    checkpoint: Any = None
    digest: Any = None
    reset_timers: bool = False

    def __post_init__(self) -> None:
        self.steps = int(self.steps)
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
