"""Figure 12 — Rhodopsin MPI function breakdown vs error threshold.

Shape asserted downstream: at tighter thresholds and bigger systems the
MPI_Send share grows over the other functions — "less time is spent on
synchronization between tasks and more time is spent on actual data
exchange" (Section 7).
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import ERROR_THRESHOLDS, SIZES_K
from repro.figures.fig04 import MPI_RANKS
from repro.figures.fig05 import MPI_FUNCTION_SHARES

__all__ = ["generate"]


def generate(
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = MPI_RANKS,
    thresholds: Iterable[float] = ERROR_THRESHOLDS,
) -> FigureData:
    """``series[(threshold, size, ranks)] -> {mpi_function: fraction}``."""
    return sweep_figure(
        "Figure 12", "Rhodopsin MPI function breakdown vs kspace error threshold",
        "cpu", {"kspace_error": thresholds}, sizes_k, ranks, MPI_FUNCTION_SHARES,
        benchmark="rhodo",
    )
