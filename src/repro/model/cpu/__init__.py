"""Simulated MPI execution on the CPU instance.

* :mod:`repro.model.cpu.mpi_model` — per-function MPI time accounting
  (Init/Send/Sendrecv/Wait/Waitany/Allreduce/others) and the per-rank
  imbalance model;
* :mod:`repro.model.cpu.executor` — the simulated CPU-instance run that
  Figures 3-6 and 10-12/14-15 are generated from, and the per-rank
  recipe the other modeled executors share;
* :mod:`repro.model.cpu.openmp` and :mod:`repro.model.cpu.multinode` —
  the hybrid MPI+OpenMP and multi-node variants the studies use.

Every modeled rank's subdomain and ghost shell is a
:class:`SubdomainGeometry`, laid out by the real engine's processor
grid (:func:`repro.parallel.decomposition.proc_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.decomposition import proc_grid

__all__ = ["SubdomainGeometry"]


@dataclass(frozen=True)
class SubdomainGeometry:
    """One rank's subdomain and its ghost shell."""

    sub_lengths: np.ndarray
    ghost_cutoff: float
    number_density: float
    grid: tuple[int, int, int]

    @classmethod
    def build(
        cls,
        n_ranks: int,
        box_lengths: np.ndarray,
        ghost_cutoff: float,
        number_density: float,
        *,
        quasi_2d: bool = False,
    ) -> "SubdomainGeometry":
        grid = proc_grid(n_ranks, box_lengths, quasi_2d=quasi_2d)
        sub = np.asarray(box_lengths, dtype=float) / np.array(grid, dtype=float)
        return cls(
            sub_lengths=sub,
            ghost_cutoff=float(ghost_cutoff),
            number_density=float(number_density),
            grid=grid,
        )

    @property
    def n_ranks(self) -> int:
        return int(np.prod(self.grid))

    @property
    def local_atoms(self) -> float:
        """Average atoms owned by one rank."""
        return float(np.prod(self.sub_lengths)) * self.number_density

    @property
    def split_dimensions(self) -> int:
        """How many dimensions the decomposition actually splits."""
        return int(sum(1 for p in self.grid if p > 1))

    @property
    def ghost_atoms(self) -> float:
        """Atoms in the ghost shell received from neighbouring ranks.

        The shell only exists along split dimensions (an unsplit
        periodic dimension wraps onto the same rank at no MPI cost).
        """
        inner = self.sub_lengths.copy()
        outer = inner + np.where(
            np.array(self.grid) > 1, 2.0 * self.ghost_cutoff, 0.0
        )
        shell_volume = float(np.prod(outer) - np.prod(inner))
        return shell_volume * self.number_density

    @property
    def exchange_messages(self) -> int:
        """Point-to-point messages per exchange sweep (2 per split dim)."""
        return 2 * self.split_dimensions

    def exchange_bytes(self, bytes_per_atom: float) -> float:
        """Bytes a rank sends per ghost exchange."""
        return self.ghost_atoms * bytes_per_atom
