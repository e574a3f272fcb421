"""Figure 7 — GPU execution-time breakdown by task (no Chute).

Shapes asserted downstream (Section 6.1):

* the Rhodopsin Pair share drops below 25 % (the GPU pair kernel is
  well optimized), while EAM still spends most of its time in Pair;
* Rhodopsin's Modify share grows vs the CPU breakdown (SHAKE has no GPU
  implementation and runs on the host).
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import GPU_COUNTS, SIZES_K
from repro.figures.fig03 import TASK_SHARES
from repro.suite import GPU_BENCHMARKS

__all__ = ["generate"]


def generate(
    benchmarks: Iterable[str] = GPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    gpus: Iterable[int] = GPU_COUNTS,
) -> FigureData:
    """``series[(benchmark, size_k, n_gpus)] -> {task: fraction}``."""
    return sweep_figure(
        "Figure 7", "GPU task breakdown per benchmark/size/device-count",
        "gpu", {"benchmark": benchmarks}, sizes_k, gpus, TASK_SHARES,
    )
