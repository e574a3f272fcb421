"""Figure 10 — Rhodopsin CPU performance vs k-space error threshold.

Performance and parallel efficiency for thresholds 1e-4 … 1e-7.
Anchors: at 2048k/64 ranks, 10.77 TS/s and 74.29 % efficiency at 1e-4
fall to 3.54 TS/s and 56.54 % at 1e-7.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import ERROR_THRESHOLDS, RANK_COUNTS, SIZES_K
from repro.figures.fig06 import scaling_metrics

__all__ = ["generate"]


def generate(
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = RANK_COUNTS,
    thresholds: Iterable[float] = ERROR_THRESHOLDS,
) -> FigureData:
    """``series[(threshold, size, ranks)] -> {ts_per_s, parallel_efficiency_pct}``."""
    return sweep_figure(
        "Figure 10", "Rhodopsin CPU performance vs kspace error threshold",
        "cpu", {"kspace_error": thresholds}, sizes_k, ranks,
        scaling_metrics("ts_per_s", "parallel_efficiency_pct"), benchmark="rhodo",
    )
