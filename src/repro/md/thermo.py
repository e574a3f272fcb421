"""Thermodynamic computes and output logging (Fig. 1 step VIII).

LAMMPS' "Output" task covers "thermodynamic info and dump files"
(Table 1); here a :class:`ThermoLog` accumulates per-interval rows of
temperature, energies and pressure that tests and examples inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.atoms import AtomSystem

__all__ = ["ThermoSnapshot", "ThermoLog", "pressure"]


def pressure(system: AtomSystem, virial: float) -> float:
    """Instantaneous isotropic pressure ``(2 KE + W) / (3 V)``.

    ``W`` is the scalar virial ``sum_pairs r . f`` with each pair counted
    once (what every :class:`~repro.md.potentials.base.ForceResult`
    reports).
    """
    return (2.0 * system.kinetic_energy() + virial) / (3.0 * system.box.volume)


@dataclass
class ThermoSnapshot:
    """One thermo output row."""

    step: int
    temperature: float
    kinetic_energy: float
    potential_energy: float
    total_energy: float
    pressure: float
    volume: float


@dataclass
class ThermoLog:
    """Accumulates thermo rows at a fixed interval."""

    every: int = 100
    rows: list[ThermoSnapshot] = field(default_factory=list)

    def should_log(self, step: int) -> bool:
        return self.every > 0 and step % self.every == 0

    def record(
        self,
        step: int,
        system: AtomSystem,
        potential_energy: float,
        virial: float,
        n_constraints: int = 0,
    ) -> ThermoSnapshot:
        ke = system.kinetic_energy()
        snap = ThermoSnapshot(
            step=step,
            temperature=system.temperature(n_constraints),
            kinetic_energy=ke,
            potential_energy=potential_energy,
            total_energy=ke + potential_energy,
            pressure=pressure(system, virial),
            volume=system.box.volume,
        )
        self.rows.append(snap)
        return snap

    # Convenience extractors -------------------------------------------------
    def series(self, name: str) -> np.ndarray:
        """Column as a numpy array, e.g. ``log.series('temperature')``."""
        if not self.rows:
            return np.empty(0)
        return np.array([getattr(row, name) for row in self.rows], dtype=float)

    def __len__(self) -> int:
        return len(self.rows)
