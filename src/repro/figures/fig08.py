"""Figure 8 — GPU kernels and data-movement breakdown.

Per configuration: the share of device time in each named CUDA kernel
and the memcpy/memset entries.  Shapes asserted downstream:

* data movement (HtoD + DtoH) takes the majority of active device time
  ("the amount of computation per communication is sub-optimal");
* the combined EAM pair kernels outlast Rhodopsin's k_charmm_long;
* for Rhodopsin, the long-range kernels (make_rho/particle_map) lead up
  to 864k atoms, then calc_neigh_list_cell becomes prevalent at 2048k.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.figures.base import FigureData, RowFamily, sweep_figure
from repro.figures.campaign import GPU_COUNTS, SIZES_K
from repro.suite import GPU_BENCHMARKS

__all__ = ["generate"]


def _top_entries(fractions: Mapping[str, float]) -> list[str]:
    top = sorted(fractions.items(), key=lambda kv: -kv[1])[:6]
    return [", ".join(f"{k}={100 * v:.1f}%" for k, v in top)]


_KERNEL_SHARES = RowFamily(
    lambda r, _base: r.kernel_fractions, ("top entries",), _top_entries
)


def generate(
    benchmarks: Iterable[str] = GPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    gpus: Iterable[int] = GPU_COUNTS,
) -> FigureData:
    """``series[(benchmark, size_k, n_gpus)] -> {kernel: fraction}``."""
    return sweep_figure(
        "Figure 8", "GPU kernel and data-movement breakdown",
        "gpu", {"benchmark": benchmarks}, sizes_k, gpus, _KERNEL_SHARES,
    )
