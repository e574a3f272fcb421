"""Figure 9 — GPU performance, energy efficiency, parallel efficiency.

The multi-device strong-scaling triple.  Shapes asserted downstream
(Section 6.2):

* multi-GPU parallel efficiency is considerably worse than the CPU
  instance's MPI scaling, dropping below ~30 % (the paper quotes a
  23.28 % floor);
* EAM outperforms Chain on the GPU instance — the reverse of the CPU
  ordering;
* energy efficiency is lower than the CPU instance's at comparable
  throughput.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, sweep_figure
from repro.figures.campaign import GPU_COUNTS, SIZES_K
from repro.figures.fig06 import scaling_metrics
from repro.suite import GPU_BENCHMARKS

__all__ = ["generate"]


def generate(
    benchmarks: Iterable[str] = GPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    gpus: Iterable[int] = GPU_COUNTS,
) -> FigureData:
    """``series[(bench, size, gpus)] -> {ts_per_s, ts_per_s_per_watt,
    parallel_efficiency_pct, gpu_utilization}``."""
    return sweep_figure(
        "Figure 9", "GPU performance / energy efficiency / parallel efficiency",
        "gpu", {"benchmark": benchmarks}, sizes_k, gpus,
        scaling_metrics(
            "ts_per_s", "ts_per_s_per_watt", "parallel_efficiency_pct",
            "gpu_utilization",
        ),
    )
