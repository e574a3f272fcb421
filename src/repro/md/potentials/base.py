"""Common interface for pairwise and many-body potentials.

A potential consumes the current :class:`~repro.md.neighbor.NeighborList`
and accumulates forces into ``system.forces``, returning the potential
energy and the pair virial (needed by the pressure compute and hence by
the NPT barostat that Rhodopsin uses).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.kernels import KernelBackend, get_backend
from repro.md.kernels.base import PairStyle
from repro.md.neighbor import NeighborList

__all__ = ["ForceResult", "PairPotential", "accumulate_pair_forces"]


@dataclass
class ForceResult:
    """Outcome of one force evaluation.

    ``virial`` is the scalar pair virial ``sum_ij r_ij . f_ij`` with each
    pair counted once; the pressure compute divides it by ``3 V``.
    ``interactions`` counts evaluated pairs — the quantity the paper's
    complexity analysis calls ``N * npa_avg`` and that our performance
    model uses as the Pair-task work measure.
    """

    energy: float = 0.0
    virial: float = 0.0
    interactions: int = 0

    def __iadd__(self, other: "ForceResult") -> "ForceResult":
        self.energy += other.energy
        self.virial += other.virial
        self.interactions += other.interactions
        return self


def accumulate_pair_forces(
    system: AtomSystem,
    i: np.ndarray,
    j: np.ndarray,
    dr: np.ndarray,
    f_over_r: np.ndarray,
    backend: KernelBackend | str | None = None,
) -> None:
    """Scatter-add pair forces for a half list.

    ``f_over_r`` is the magnitude of the pair force divided by the
    distance (so that ``f_vec = f_over_r * dr``); positive values are
    repulsive for ``dr = x_i - x_j``.  The scatter itself is delegated
    to a :class:`~repro.md.kernels.base.KernelBackend`.
    """
    get_backend(backend).accumulate_scaled_pair_forces(
        system.forces, i, j, dr, f_over_r
    )


class PairPotential(abc.ABC):
    """Base class for potentials evaluated over a neighbor list."""

    #: Interaction cutoff; the neighbor list must be built with at least
    #: this cutoff.
    cutoff: float

    #: True when the potential needs both pair directions (``newton off``):
    #: the granular history potential and Tersoff do.
    needs_full_list: bool = False

    #: Whether :meth:`AnalyticPairPotential.pair_terms` reads the
    #: per-pair type / charge arrays.  When false the (large) gathers
    #: are skipped and ``None`` is passed instead.
    needs_types: bool = True
    needs_charges: bool = False

    _backend: KernelBackend | None = None

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend force evaluation runs on.

        Unset potentials resolve lazily through
        :func:`repro.md.kernels.get_backend` (env var / default); the
        owning :class:`~repro.md.simulation.Simulation` assigns its
        shared backend to every potential at construction.
        """
        if self._backend is None:
            self._backend = get_backend()
        return self._backend

    @backend.setter
    def backend(self, value: KernelBackend | str | None) -> None:
        self._backend = None if value is None else get_backend(value)

    def require_list_kind(self, neighbors: NeighborList) -> None:
        """Refuse a half list when :attr:`needs_full_list` is set.

        A full-list potential walks each atom's *complete* row; over a
        half list it silently drops the partners stored under the other
        atom.  ``Simulation`` always builds the right kind, so this only
        fires for lists built by hand.
        """
        if self.needs_full_list and not neighbors.full:
            raise ValueError(
                f"{type(self).__name__} needs both directions of every "
                "pair: build the list with NeighborList(full=True)"
            )

    @abc.abstractmethod
    def compute(self, system: AtomSystem, neighbors: NeighborList) -> ForceResult:
        """Accumulate forces into ``system.forces`` and return totals."""

    def halo_width(self, list_cutoff: float) -> float:
        """Ghost-shell width a subdomain needs to evaluate owned atoms.

        For plain pairwise interactions the neighbor-list cutoff
        (``cutoff + skin``) suffices: every partner of an owned atom lies
        within it for the whole rebuild interval.  Many-body potentials
        whose per-atom terms depend on *their partners'* environments
        (EAM's embedding density) must widen this so halo atoms also see
        complete neighbor rows.
        """
        return float(list_cutoff)

    def energy_only(self, system: AtomSystem, neighbors: NeighborList) -> float:
        """Potential energy of the current configuration (forces restored)."""
        saved = system.forces.copy()
        system.forces[:] = 0.0
        result = self.compute(system, neighbors)
        system.forces[:] = saved
        return result.energy


class AnalyticPairPotential(PairPotential):
    """Convenience base for purely pairwise potentials.

    Subclasses implement :meth:`pair_terms`, returning per-pair energy
    and ``f_over_r``; accumulation, virial and bookkeeping live here.
    """

    @abc.abstractmethod
    def pair_terms(
        self,
        r: np.ndarray,
        r2: np.ndarray,
        type_i: np.ndarray,
        type_j: np.ndarray,
        q_i: np.ndarray,
        q_j: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-pair ``(energy, f_over_r)`` arrays.

        ``type_i``/``type_j`` and ``q_i``/``q_j`` are only gathered (and
        non-``None``) when the class opts in via :attr:`needs_types` /
        :attr:`needs_charges` — skipping those per-pair gathers is a
        measurable win at benchmark pair counts.
        """

    def fused_style(self) -> PairStyle | None:
        """Closed form a backend may evaluate in place of :meth:`pair_terms`.

        ``None`` (the default) keeps :meth:`compute` on the generic
        geometry → ``pair_terms`` → scatter path.  A subclass whose
        functional form a backend knows natively returns its
        :class:`~repro.md.kernels.base.PairStyle`; the backend still
        declines (and the generic path runs) whenever it cannot
        reproduce that path bitwise.
        """
        return None

    def compute(self, system: AtomSystem, neighbors: NeighborList) -> ForceResult:
        kernel = self.backend
        style = self.fused_style()
        if style is not None:
            fused = kernel.pair_forces(style, system, neighbors)
            if fused is not None:
                return ForceResult(*fused)
        i, j, dr, r = kernel.current_pairs(system, neighbors, self.cutoff)
        if len(i) == 0:
            return ForceResult()
        r2 = r * r
        type_i = system.types[i] if self.needs_types else None
        type_j = system.types[j] if self.needs_types else None
        # Static charges stay float64 in storage; the per-pair gathers
        # are cast to the geometry's (compute) dtype so reduced-precision
        # modes never silently promote back to f64 mid-formula.
        q_i = (
            system.charges[i].astype(dr.dtype, copy=False)
            if self.needs_charges
            else None
        )
        q_j = (
            system.charges[j].astype(dr.dtype, copy=False)
            if self.needs_charges
            else None
        )
        energy, f_over_r = self.pair_terms(r, r2, type_i, type_j, q_i, q_j)
        kernel.accumulate_scaled_pair_forces(system.forces, i, j, dr, f_over_r)
        # Scalar totals always reduce in float64 (identical to the
        # historical behavior at f64; an exact O(M) upcast otherwise).
        virial = float(np.sum(f_over_r * r2, dtype=np.float64))
        return ForceResult(
            float(np.sum(energy, dtype=np.float64)), virial, len(i)
        )
