"""Figure 14 — Rhodopsin MPI overhead and imbalance vs error threshold.

Shape asserted downstream: the *relative* MPI overhead decreases as the
threshold tightens — the long-range compute (and genuine data exchange)
grows faster than the synchronization overheads (Section 7).
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import SIZES_K
from repro.figures.fig04 import MPI_OVERHEAD, MPI_RANKS

__all__ = ["generate", "FIG14_THRESHOLDS"]

#: The paper shows the baseline, 1e-6 and 1e-7 (1e-5 behaves like 1e-6).
FIG14_THRESHOLDS: tuple[float, ...] = (1e-4, 1e-6, 1e-7)


def generate(
    sizes_k: Iterable[int] = SIZES_K,
    thresholds: Iterable[float] = FIG14_THRESHOLDS,
) -> FigureData:
    """``series[(threshold, size, ranks)] -> (mpi_pct, imbalance_pct)``."""
    return sweep_figure(
        "Figure 14", "Rhodopsin MPI overhead and imbalance vs kspace error threshold",
        "cpu", {"kspace_error": thresholds}, sizes_k, MPI_RANKS, MPI_OVERHEAD,
        benchmark="rhodo",
    )
