"""Shared scaffolding for the k-space solvers.

Both Ewald and PPPM compute the same three corrections on top of their
reciprocal-space sums:

* the *self-energy* ``-C alpha/sqrt(pi) * sum(q^2)`` every split Coulomb
  sum over-counts,
* the *excluded-pair* correction: the reciprocal sum includes every pair,
  so intramolecular pairs masked out of the real-space pair potential
  must have their ``erf``-complement subtracted,
* charge-neutrality validation (a net charge makes the k=0 term diverge).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.potentials.base import ForceResult
from repro.md.precision import DOUBLE_POLICY, PrecisionPolicy
from repro.observability.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.md.kernels.base import KernelBackend

__all__ = ["KSpaceSolver"]

# Python float so float32 compute paths are not promoted under NEP 50.
_TWO_OVER_SQRT_PI = float(2.0 / np.sqrt(np.pi))


class KSpaceSolver(abc.ABC):
    """Base class for long-range Coulomb solvers.

    Parameters
    ----------
    alpha:
        Ewald splitting parameter (must match the short-range pair
        potential's ``alpha``).
    coulomb_constant:
        The ``q q / r`` prefactor (1 in reduced units).
    exclusions:
        ``(M, 2)`` intramolecular pairs excluded from the real-space pair
        potential whose k-space double counting must be corrected.
    """

    def __init__(
        self,
        alpha: float,
        coulomb_constant: float = 1.0,
        exclusions: np.ndarray | None = None,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.coulomb_constant = float(coulomb_constant)
        self.exclusions = (
            None
            if exclusions is None or len(exclusions) == 0
            else np.asarray(exclusions, dtype=np.int64).reshape(-1, 2)
        )
        #: Span sink for solver phases; the shared no-op unless the
        #: owning :class:`~repro.md.simulation.Simulation` attaches one.
        self.tracer = NULL_TRACER
        #: Precision policy the solver evaluates under (installed by the
        #: owning Simulation; full float64 by default).
        self.policy: PrecisionPolicy = DOUBLE_POLICY
        #: Kernel backend whose particle-mesh hooks a solver may take
        #: (installed by the owning Simulation); ``None`` runs the
        #: solver's own numpy body.
        self.backend: KernelBackend | None = None

    # ------------------------------------------------------------------
    def check_neutrality(self, system: AtomSystem, tol: float = 1e-8) -> None:
        net = float(np.sum(system.charges))
        scale = max(float(np.sum(np.abs(system.charges))), 1.0)
        if abs(net) > tol * scale:
            raise ValueError(
                f"k-space solvers need a charge-neutral system; net charge {net:g}"
            )

    def self_energy(self, system: AtomSystem) -> float:
        qsqsum = float(np.sum(system.charges**2))
        return -self.coulomb_constant * self.alpha / np.sqrt(np.pi) * qsqsum

    def excluded_pair_correction(self, system: AtomSystem) -> ForceResult:
        """Subtract the reciprocal-space contribution of excluded pairs.

        For each excluded pair the k-space sum silently added the full
        ``erf(alpha r)/r`` interaction; we subtract energy and force here.
        The result counts no interactions: a solver's work count is its
        mesh (or k-vector) size alone.
        """
        if self.exclusions is None:
            return ForceResult()
        # Imported here, not with the module: an engine import that never
        # reaches k-space does not pay for loading scipy.
        from scipy.special import erf

        i = self.exclusions[:, 0]
        j = self.exclusions[:, 1]
        ct = self.policy.compute_dtype
        positions = system.positions.astype(ct, copy=False)
        charges = system.charges.astype(ct, copy=False)
        dr = system.box.minimum_image(positions[i] - positions[j])
        r2 = np.einsum("ij,ij->i", dr, dr)
        r = np.sqrt(r2)
        qq = self.coulomb_constant * charges[i] * charges[j]
        ar = self.alpha * r
        erf_ar = erf(ar)
        energy = -qq * erf_ar / r
        # E = -C qq erf(ar)/r ; f_over_r = -dE/dr / r
        f_over_r = qq * (
            _TWO_OVER_SQRT_PI * self.alpha * np.exp(-ar * ar) / r2 - erf_ar / (r2 * r)
        )
        fvec = f_over_r[:, None] * dr
        np.add.at(system.forces, i, fvec)
        np.subtract.at(system.forces, j, fvec)
        virial = float(np.sum(f_over_r * r2, dtype=np.float64))
        return ForceResult(float(np.sum(energy, dtype=np.float64)), virial)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compute(self, system: AtomSystem) -> ForceResult:
        """Accumulate long-range forces into ``system.forces``."""

    def energy_only(self, system: AtomSystem) -> float:
        saved = system.forces.copy()
        system.forces[:] = 0.0
        result = self.compute(system)
        system.forces[:] = saved
        return result.energy
