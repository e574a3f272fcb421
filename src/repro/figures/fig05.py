"""Figure 5 — breakdown of MPI time by function.

Per (benchmark, size, ranks): the share of MPI time in MPI_Init,
MPI_Send, MPI_Sendrecv, MPI_Wait, MPI_Allreduce and the rest.  Shapes
asserted downstream (Section 5.1's findings):

* MPI_Init takes a considerable share, growing with the rank count;
* small systems are dominated by Init + Wait (synchronization, not
  data), while Send/Sendrecv/Allreduce grow with system size.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, percent_breakdown, sweep_figure
from repro.figures.campaign import SIZES_K
from repro.figures.fig04 import MPI_RANKS
from repro.model.cpu.mpi_model import MPI_FUNCTIONS
from repro.suite import CPU_BENCHMARKS

__all__ = ["generate", "MPI_FUNCTION_SHARES"]

#: Row family of Figures 5 and 12: one percentage per MPI function.
MPI_FUNCTION_SHARES = percent_breakdown("mpi_function_fractions", MPI_FUNCTIONS)


def generate(
    benchmarks: Iterable[str] = CPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = MPI_RANKS,
) -> FigureData:
    """``series[(bench, size, ranks)] -> {mpi_function: fraction}``."""
    return sweep_figure(
        "Figure 5", "MPI function breakdown of the MPI overhead",
        "cpu", {"benchmark": benchmarks}, sizes_k, ranks, MPI_FUNCTION_SHARES,
    )
