"""SHAKE / RATTLE holonomic distance constraints.

The Rhodopsin benchmark adds SHAKE constraints (Andersen, 1983) to hold
rigid bond lengths and angles — in a real all-atom run the waters'
O-H bonds and H-O-H angle, which lets the 2 fs timestep survive.  The
paper's Section 6 notes that SHAKE has *no GPU implementation* in the
reference GPU package, leaving the CPU in charge of the Modify task;
our GPU executor models exactly that.

An H-O-H angle constraint is expressed as a third distance constraint
between the two hydrogens, so everything reduces to pair distances.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.state import Stateful

__all__ = ["ShakeConstraints"]


class ShakeConstraints(Stateful):
    """Iterative SHAKE position + RATTLE velocity constraint solver.

    Parameters
    ----------
    pairs:
        ``(M, 2)`` atom-index pairs to constrain.
    distances:
        Target distance per pair.
    tolerance:
        Relative convergence tolerance on ``|r^2 - d^2| / d^2``.
    max_iterations:
        Iteration cap; exceeded only for pathological configurations.
    """

    # SHAKE is stateless across steps; only the iteration diagnostic
    # (exported to metrics) survives a checkpoint.
    STATE = {"last_iterations": "last_iterations"}

    def __init__(
        self,
        pairs: np.ndarray,
        distances: np.ndarray,
        *,
        tolerance: float = 1e-8,
        max_iterations: int = 200,
    ) -> None:
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.distances = np.asarray(distances, dtype=float).reshape(-1)
        if len(self.distances) != len(self.pairs):
            raise ValueError("one target distance per constrained pair required")
        if np.any(self.distances <= 0):
            raise ValueError("constraint distances must be positive")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.last_iterations = 0

    @property
    def n_constraints(self) -> int:
        return len(self.pairs)

    # ------------------------------------------------------------------
    def apply_positions(
        self, system: AtomSystem, reference_positions: np.ndarray, dt: float
    ) -> None:
        """SHAKE: project post-drift positions back onto the constraints.

        ``reference_positions`` are the pre-drift coordinates whose bond
        vectors define the constraint directions (the classic SHAKE
        linearization).  Velocities receive the matching correction so
        the half-step kinetic state stays consistent.
        """
        i = self.pairs[:, 0]
        j = self.pairs[:, 1]
        box = system.box
        d2 = self.distances**2
        inv_mi = 1.0 / system.masses[i]
        inv_mj = 1.0 / system.masses[j]
        # The projection iterates to a relative tolerance (1e-8 by
        # default) that float32 state cannot represent, so narrow
        # storage modes solve on float64 working copies and round once
        # at write-back — the same "constraints stay in double" split
        # the reference CPU package makes.
        upcast = system.positions.dtype != np.float64
        positions = (
            system.positions.astype(np.float64) if upcast else system.positions
        )
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        reference = np.asarray(reference_positions, dtype=np.float64)
        ref_dr = box.minimum_image(reference[i] - reference[j])

        for iteration in range(1, self.max_iterations + 1):
            dr = box.minimum_image(positions[i] - positions[j])
            r2 = np.einsum("ij,ij->i", dr, dr)
            diff = r2 - d2
            if np.all(np.abs(diff) <= self.tolerance * d2):
                self.last_iterations = iteration - 1
                if upcast:
                    system.positions[...] = positions
                    system.velocities[...] = velocities
                return
            # First-order Lagrange multiplier along the reference bond.
            denom = 2.0 * (inv_mi + inv_mj) * np.einsum("ij,ij->i", ref_dr, dr)
            # A vanishing projection means the linearization broke down.
            safe = np.where(np.abs(denom) > 1e-12, denom, np.sign(denom) * 1e-12 + 1e-12)
            g = diff / safe
            corr = g[:, None] * ref_dr
            np.add.at(positions, i, -inv_mi[:, None] * corr)
            np.add.at(positions, j, inv_mj[:, None] * corr)
            if dt > 0:
                np.add.at(velocities, i, -inv_mi[:, None] * corr / dt)
                np.add.at(velocities, j, inv_mj[:, None] * corr / dt)
        raise RuntimeError(
            f"SHAKE failed to converge in {self.max_iterations} iterations"
        )

    def apply_velocities(self, system: AtomSystem) -> None:
        """RATTLE: remove velocity components along the constraints."""
        i = self.pairs[:, 0]
        j = self.pairs[:, 1]
        box = system.box
        inv_mi = 1.0 / system.masses[i]
        inv_mj = 1.0 / system.masses[j]
        # Same float64 working-copy treatment as apply_positions.
        upcast = system.velocities.dtype != np.float64
        positions = np.asarray(system.positions, dtype=np.float64)
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        for iteration in range(1, self.max_iterations + 1):
            dr = box.minimum_image(positions[i] - positions[j])
            r2 = np.einsum("ij,ij->i", dr, dr)
            dv = velocities[i] - velocities[j]
            rv = np.einsum("ij,ij->i", dr, dv)
            # Converged when the radial relative velocity (units 1/time,
            # normalized by r^2) is below tolerance.
            if np.all(np.abs(rv) <= self.tolerance * r2):
                self.last_iterations = iteration - 1
                if upcast:
                    system.velocities[...] = velocities
                return
            k = rv / (r2 * (inv_mi + inv_mj))
            corr = k[:, None] * dr
            np.add.at(velocities, i, -inv_mi[:, None] * corr)
            np.add.at(velocities, j, inv_mj[:, None] * corr)
        raise RuntimeError(
            f"RATTLE failed to converge in {self.max_iterations} iterations"
        )

    # ------------------------------------------------------------------
    def max_violation(self, system: AtomSystem) -> float:
        """Largest relative constraint violation ``|r - d| / d``."""
        i = self.pairs[:, 0]
        j = self.pairs[:, 1]
        r = system.box.distance(system.positions[i], system.positions[j])
        return float(np.max(np.abs(r - self.distances) / self.distances))
