"""Figure 13 — Rhodopsin GPU performance vs k-space error threshold.

Anchor: at 2048k atoms on 8 GPUs, 16.09 TS/s at 1e-4 collapses to
0.46 TS/s at 1e-7 — a ~35x penalty (vs ~3x on the CPU instance),
because the grown FFT grid must cross PCIe every step.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import ERROR_THRESHOLDS, GPU_COUNTS, SIZES_K
from repro.figures.fig06 import scaling_metrics

__all__ = ["generate"]


def generate(
    sizes_k: Iterable[int] = SIZES_K,
    gpus: Iterable[int] = GPU_COUNTS,
    thresholds: Iterable[float] = ERROR_THRESHOLDS,
) -> FigureData:
    """``series[(threshold, size, gpus)] -> {ts_per_s, parallel_efficiency_pct}``."""
    return sweep_figure(
        "Figure 13", "Rhodopsin GPU performance vs kspace error threshold",
        "gpu", {"kspace_error": thresholds}, sizes_k, gpus,
        scaling_metrics("ts_per_s", "parallel_efficiency_pct"), benchmark="rhodo",
    )
