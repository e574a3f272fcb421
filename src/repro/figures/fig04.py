"""Figure 4 — total MPI overhead and MPI imbalance percentages.

For the "-long" (10k-timestep) profiling runs: the per-rank share of
time inside MPI calls (top row) and the share spent waiting for data
(bottom row).  Shapes asserted downstream:

* overhead decreases with system size (computation grows faster than
  communication, the paper's O(L^3) vs O(L^2) argument);
* EAM and LJ have far lower imbalance than Chain and Chute.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, RowFamily, sweep_figure
from repro.figures.campaign import SIZES_K
from repro.suite import CPU_BENCHMARKS

__all__ = ["generate", "MPI_RANKS", "MPI_OVERHEAD"]

#: The paper's Figures 4/5 sweep ranks 4..64 (1-2 ranks have ~no MPI).
MPI_RANKS: tuple[int, ...] = (4, 8, 16, 32, 64)

#: Row family of Figures 4 and 14: ``(mpi_pct, imbalance_pct)``.
MPI_OVERHEAD = RowFamily(
    value=lambda r, _base: (
        100.0 * r.mpi_time_fraction, 100.0 * r.mpi_imbalance_fraction
    ),
    columns=("MPI time %", "MPI imbalance %"),
    cells=lambda pct: [f"{pct[0]:.1f}", f"{pct[1]:.2f}"],
)


def generate(
    benchmarks: Iterable[str] = CPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = MPI_RANKS,
) -> FigureData:
    """``series[(bench, size, ranks)] -> (mpi_pct, imbalance_pct)``."""
    return sweep_figure(
        "Figure 4", "MPI overhead and imbalance (long runs)",
        "cpu", {"benchmark": benchmarks}, sizes_k, ranks, MPI_OVERHEAD,
    )
