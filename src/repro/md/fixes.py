"""Fixes: per-step operations applied to groups of atoms.

Table 1 defines the "Modify" task as "fixes and computes invoked by
fixes" — applying constraint forces, controlling temperature, enforcing
boundary conditions.  The suite needs three of them:

* :class:`LangevinThermostat` — the Chain benchmark applies a Langevin
  thermostat to all atoms (Davidchack et al., 2009);
* :class:`Gravity` — drives the Chute flow down the incline;
* :class:`BottomWall` — the chute's lower boundary (its z dimension is
  not periodic).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.state import Stateful

__all__ = [
    "Fix",
    "LangevinThermostat",
    "Gravity",
    "BottomWall",
    "BerendsenThermostat",
    "VelocityRescale",
]


class Fix(Stateful, abc.ABC):
    """A per-timestep operation on (a group of) atoms.

    Most fixes are pure functions of the instantaneous system state and
    declare no ``STATE``; the Langevin thermostat's RNG stream is the
    notable exception — without it a restart samples different kicks
    and the restarted trajectory silently diverges.
    """

    @abc.abstractmethod
    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        """Hook running after forces are computed, before final integrate."""


class LangevinThermostat(Fix):
    """Langevin dynamics: friction plus matched random kicks.

    Adds ``F = -m v / damp + sqrt(2 m kT / (damp dt)) xi`` with unit
    Gaussian ``xi`` — the standard fluctuation-dissipation pair that
    drives the system to the target temperature.
    """

    # The bit-generator state is a plain nested dict of ints/strings
    # (JSON-serializable), so a restored stream continues bit-for-bit.
    STATE = {"rng_state": "rng.bit_generator.state"}

    def __init__(
        self, temperature: float, damp: float, rng: np.random.Generator
    ) -> None:
        if temperature < 0 or damp <= 0:
            raise ValueError("temperature must be >= 0 and damp > 0")
        self.temperature = float(temperature)
        self.damp = float(damp)
        self.rng = rng

    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        m = system.masses[:, None]
        drag = -m * system.velocities / self.damp
        sigma = np.sqrt(2.0 * m * self.temperature / (self.damp * dt))
        noise = sigma * self.rng.normal(size=system.velocities.shape)
        system.forces += drag + noise


class Gravity(Fix):
    """Uniform gravitational acceleration.

    For the chute flow the vector is tilted by the chute angle, so the
    packed granular bed flows "downhill" along x while being held by the
    bottom wall in z (LAMMPS ``fix gravity ... chute 26.0``).
    """

    def __init__(self, magnitude: float = 1.0, chute_angle_deg: float = 26.0):
        if magnitude < 0:
            raise ValueError("gravity magnitude must be non-negative")
        angle = math.radians(chute_angle_deg)
        self.vector = magnitude * np.array(
            [math.sin(angle), 0.0, -math.cos(angle)]
        )

    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        system.forces += system.masses[:, None] * self.vector


class BottomWall(Fix):
    """Repulsive Hookean wall at the bottom of a non-periodic dimension.

    Granular particles overlapping the plane ``coord = position`` feel a
    spring force ``k * overlap`` pushing them back, with a normal-velocity
    damping term matching the granular pair style.
    """

    def __init__(
        self,
        position: float = 0.0,
        k: float = 200000.0,
        gamma: float = 50.0,
        dim: int = 2,
    ) -> None:
        self.position = float(position)
        self.k = float(k)
        self.gamma = float(gamma)
        if dim not in (0, 1, 2):
            raise ValueError("dim must be 0, 1 or 2")
        self.dim = int(dim)

    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        radii = system.radii if system.radii is not None else 0.5
        gap = system.positions[:, self.dim] - self.position
        overlap = radii - gap
        touching = overlap > 0
        if not np.any(touching):
            return
        v_n = system.velocities[touching, self.dim]
        m = system.masses[touching]
        force = self.k * overlap[touching] - self.gamma * m * v_n
        system.forces[touching, self.dim] += force


class BerendsenThermostat(Fix):
    """Berendsen weak-coupling thermostat.

    Rescales velocities toward the target temperature with relaxation
    time ``damp``: ``lambda^2 = 1 + dt/damp (T0/T - 1)``.  Cheaper and
    smoother than Langevin but does not sample a canonical ensemble —
    provided as the common alternative knob for the Chain benchmark.
    """

    def __init__(self, temperature: float, damp: float) -> None:
        if temperature <= 0 or damp <= 0:
            raise ValueError("temperature and damp must be positive")
        self.temperature = float(temperature)
        self.damp = float(damp)

    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        current = system.temperature()
        if current <= 0:
            return
        ratio = 1.0 + dt / self.damp * (self.temperature / current - 1.0)
        # Guard against overshoot for very cold/hot starts.
        scale = math.sqrt(min(max(ratio, 0.25), 4.0))
        system.velocities *= scale


class VelocityRescale(Fix):
    """Hard velocity rescaling to the target temperature every N steps.

    The bluntest thermostat — used during equilibration phases where a
    canonical distribution is not yet needed.
    """

    def __init__(self, temperature: float, every: int = 10) -> None:
        if temperature <= 0 or every < 1:
            raise ValueError("temperature must be positive and every >= 1")
        self.temperature = float(temperature)
        self.every = int(every)

    def post_force(self, system: AtomSystem, dt: float, step: int) -> None:
        if step % self.every:
            return
        current = system.temperature()
        if current <= 0:
            return
        system.velocities *= math.sqrt(self.temperature / current)
