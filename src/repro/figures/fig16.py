"""Figure 16 — LJ and Rhodopsin GPU performance by floating-point precision.

Anchors: LJ 2048k on 8 GPUs drops 170.0 -> 121.6 TS/s from single to
double (the V100's FP64 throughput); Rhodopsin barely moves (17.1 ->
16.5 TS/s) because its step is not pair-kernel-bound on the GPU.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import GPU_COUNTS, SIZES_K
from repro.figures.fig15 import PRECISION_BENCHMARKS, PRECISION_MODES, THROUGHPUT

__all__ = ["generate"]


def generate(
    benchmarks: Iterable[str] = PRECISION_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    gpus: Iterable[int] = GPU_COUNTS,
) -> FigureData:
    """``series[(bench, precision, size, gpus)] -> ts_per_s``."""
    return sweep_figure(
        "Figure 16", "GPU performance by floating-point precision (LJ, Rhodopsin)",
        "gpu", {"benchmark": benchmarks, "precision": PRECISION_MODES},
        sizes_k, gpus, THROUGHPUT,
    )
