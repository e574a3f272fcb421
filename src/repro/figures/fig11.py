"""Figure 11 — Rhodopsin CPU task breakdown vs k-space error threshold.

Shape asserted downstream: the Kspace share of the timestep grows
monotonically as the threshold tightens from 1e-4 to 1e-7.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import ERROR_THRESHOLDS, SIZES_K
from repro.figures.fig03 import TASK_SHARES

__all__ = ["generate", "BREAKDOWN_RANKS"]

#: The paper's Figure 11 plots ranks 2..64.
BREAKDOWN_RANKS: tuple[int, ...] = (2, 4, 8, 16, 32, 64)


def generate(
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = BREAKDOWN_RANKS,
    thresholds: Iterable[float] = ERROR_THRESHOLDS,
) -> FigureData:
    """``series[(threshold, size, ranks)] -> {task: fraction}``."""
    return sweep_figure(
        "Figure 11", "Rhodopsin CPU task breakdown vs kspace error threshold",
        "cpu", {"kspace_error": thresholds}, sizes_k, ranks, TASK_SHARES,
        benchmark="rhodo",
    )
