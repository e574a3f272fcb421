"""Structure-of-arrays particle store with molecular topology.

This mirrors LAMMPS' ``Atom`` class at the granularity this study needs:
per-atom state (positions, velocities, forces, type, charge, mass,
image flags, and — for the granular Chute benchmark — radius and angular
velocity) plus the bonded topology (bonds / angles) consumed by the
bonded-force and constraint (SHAKE) machinery.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field

import numpy as np

from repro.md.box import Box
from repro.md.state import held_arrays

__all__ = ["AtomSystem", "Topology"]


@dataclass
class Topology:
    """Bonded topology: bonds and angles with per-element type ids.

    ``bonds`` is an ``(Nb, 2)`` int array of atom indices, ``bond_types``
    the matching ``(Nb,)`` type-id array (and likewise for angles, whose
    rows are ``(i, j, k)`` with ``j`` the vertex atom).
    """

    bonds: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    bond_types: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    angles: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    angle_types: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.bonds = np.asarray(self.bonds, dtype=np.int64).reshape(-1, 2)
        self.angles = np.asarray(self.angles, dtype=np.int64).reshape(-1, 3)
        if len(self.bond_types) == 0 and len(self.bonds) > 0:
            self.bond_types = np.zeros(len(self.bonds), dtype=np.int64)
        if len(self.angle_types) == 0 and len(self.angles) > 0:
            self.angle_types = np.zeros(len(self.angles), dtype=np.int64)
        self.bond_types = np.asarray(self.bond_types, dtype=np.int64)
        self.angle_types = np.asarray(self.angle_types, dtype=np.int64)
        if len(self.bond_types) != len(self.bonds):
            raise ValueError("bond_types length must match bonds")
        if len(self.angle_types) != len(self.angles):
            raise ValueError("angle_types length must match angles")

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    def validate(self, n_atoms: int) -> None:
        """Raise if any topology element references a missing atom."""
        for name, arr in (("bonds", self.bonds), ("angles", self.angles)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_atoms):
                raise ValueError(f"{name} reference atoms outside [0, {n_atoms})")


class AtomSystem:
    """All per-atom state of a simulation, stored as numpy arrays.

    Parameters
    ----------
    positions:
        ``(N, 3)`` initial coordinates.  They are wrapped into ``box``.
    box:
        The simulation :class:`~repro.md.box.Box`.
    velocities, masses, types, charges:
        Optional per-atom arrays; sensible defaults are zero velocities,
        unit masses, a single type ``0`` and zero charges.
    topology:
        Optional bonded :class:`Topology`.
    radii:
        Per-atom radii for granular (finite-size) particles; ``None``
        means point particles.
    dtype:
        Storage dtype of the *dynamical* state (positions, velocities,
        forces, angular state).  ``None`` infers float32 only when the
        ``positions`` input already is a float32 array (so restart files
        round-trip without silent upcast) and defaults to float64
        otherwise.  Static parameters (masses, charges, radii) always
        stay float64 — compute paths cast them per use.
    """

    def __init__(
        self,
        positions: np.ndarray,
        box: Box,
        *,
        velocities: np.ndarray | None = None,
        masses: np.ndarray | None = None,
        types: np.ndarray | None = None,
        charges: np.ndarray | None = None,
        topology: Topology | None = None,
        radii: np.ndarray | None = None,
        molecule_ids: np.ndarray | None = None,
        dtype: np.dtype | str | None = None,
    ) -> None:
        if dtype is None:
            source = np.asarray(positions)
            dtype = np.float32 if source.dtype == np.float32 else np.float64
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"storage dtype must be float32 or float64, got {dtype}"
            )
        positions = np.array(positions, dtype=dtype).reshape(-1, 3)
        n = len(positions)
        if n == 0:
            raise ValueError("an AtomSystem needs at least one atom")
        self.box = box
        self.images = np.zeros((n, 3), dtype=np.int64)
        self.positions, self.images = box.wrap_with_images(positions, self.images)

        self.velocities = self._per_atom(velocities, n, 3, 0.0, dtype=dtype)
        self.forces = np.zeros((n, 3), dtype=dtype)
        self.masses = self._per_atom(masses, n, None, 1.0)
        if np.any(self.masses <= 0):
            raise ValueError("atom masses must be positive")
        self.types = (
            np.zeros(n, dtype=np.int64)
            if types is None
            else np.asarray(types, dtype=np.int64).reshape(n).copy()
        )
        self.charges = self._per_atom(charges, n, None, 0.0)
        self.topology = topology if topology is not None else Topology()
        self.topology.validate(n)
        self.radii = None if radii is None else self._per_atom(radii, n, None, 0.5)
        self.molecule_ids = (
            np.zeros(n, dtype=np.int64)
            if molecule_ids is None
            else np.asarray(molecule_ids, dtype=np.int64).reshape(n).copy()
        )
        # Angular state only allocated for granular systems.
        self.omega = np.zeros((n, 3), dtype=dtype) if radii is not None else None
        self.torques = np.zeros((n, 3), dtype=dtype) if radii is not None else None

    @staticmethod
    def _per_atom(
        values: np.ndarray | float | None,
        n: int,
        width: int | None,
        default: float,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> np.ndarray:
        shape = (n,) if width is None else (n, width)
        if values is None:
            return np.full(shape, default, dtype=dtype)
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim == 0:
            return np.full(shape, float(arr), dtype=dtype)
        return arr.reshape(shape).copy()

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def n_types(self) -> int:
        return int(self.types.max()) + 1

    @property
    def is_granular(self) -> bool:
        return self.radii is not None

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the dynamical per-atom state."""
        return self.positions.dtype

    def cast_storage(self, dtype: np.dtype | str) -> None:
        """Cast the ``storage`` rows of ``STATE_ARRAYS`` in place.

        float32 -> float64 is exact; float64 -> float32 rounds — the
        explicit entry point the precision policy (and the restart
        layer's ``cast=`` opt-in) uses, so no code path upcasts or
        downcasts silently.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"storage dtype must be float32 or float64, got {dtype}"
            )
        if self.dtype == dtype:
            return
        for row, value in held_arrays(self, "storage"):
            row.set(self, value.astype(dtype))

    # ------------------------------------------------------------------
    # Thermodynamic state helpers
    # ------------------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Total translational kinetic energy ``sum(m v^2) / 2``."""
        v2 = np.sum(self.velocities * self.velocities, axis=1)
        return 0.5 * float(np.dot(self.masses, v2))

    def temperature(
        self, n_constraints: int = 0, kinetic: float | None = None
    ) -> float:
        """Instantaneous temperature in reduced units (kB = 1).

        ``n_constraints`` removes degrees of freedom held by SHAKE;
        ``kinetic`` is :meth:`kinetic_energy` when the caller has it.
        """
        dof = 3 * self.n_atoms - 3 - n_constraints
        if dof <= 0:
            return 0.0
        if kinetic is None:
            kinetic = self.kinetic_energy()
        return 2.0 * kinetic / dof

    def momentum(self) -> np.ndarray:
        """Total linear momentum (should stay ~0 in NVE runs)."""
        return np.sum(self.masses[:, None] * self.velocities, axis=0)

    def zero_momentum(self) -> None:
        """Remove centre-of-mass drift from the velocities."""
        total_mass = float(np.sum(self.masses))
        v_cm = self.momentum() / total_mass
        self.velocities -= v_cm

    def density(self) -> float:
        """Number density N / V."""
        return self.n_atoms / self.box.volume

    # ------------------------------------------------------------------
    # Mutation helpers used by integrators
    # ------------------------------------------------------------------
    def wrap(self) -> None:
        """Re-wrap positions into the primary box image."""
        self.positions, self.images = self.box.wrap_with_images(
            self.positions, self.images
        )

    def unwrapped_positions(self) -> np.ndarray:
        """Positions with periodic image shifts undone."""
        shift = (self.images * self.box.lengths).astype(self.positions.dtype)
        return self.positions + shift

    def seed_velocities(self, temperature: float, rng: np.random.Generator) -> None:
        """Draw Maxwell–Boltzmann velocities at ``temperature`` (kB = 1)."""
        sigma = np.sqrt(temperature / self.masses)[:, None]
        self.velocities = (rng.normal(size=(self.n_atoms, 3)) * sigma).astype(
            self.dtype, copy=False
        )
        self.zero_momentum()
        # Rescale to hit the target temperature exactly after removing the
        # centre-of-mass motion.
        current = self.temperature()
        if current > 0 and temperature > 0:
            self.velocities *= np.sqrt(temperature / current)

    def copy(self) -> "AtomSystem":
        """A deep copy: every row of ``STATE_ARRAYS``, bit for bit."""
        clone = shallow_copy(self)
        clone.box, clone.topology = shallow_copy(self.box), shallow_copy(self.topology)
        for row, value in held_arrays(self):
            row.set(clone, value.copy())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AtomSystem(n_atoms={self.n_atoms}, n_types={self.n_types}, "
            f"n_bonds={self.topology.n_bonds}, box={self.box!r})"
        )
