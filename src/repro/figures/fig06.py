"""Figure 6 — CPU performance, energy efficiency, parallel efficiency.

The strong-scaling triple for every benchmark and size on the CPU
instance.  Anchors and shapes asserted downstream:

* Rhodopsin is slowest in absolute TS/s (10.77 TS/s at 2048k/64);
* Chute leads at 32k but loses its advantage at larger sizes and shows
  the worst parallel efficiency;
* all efficiencies stay in (0, 100]; energy efficiency peaks for the
  small/cheap configurations.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, RowFamily, sweep_figure
from repro.figures.campaign import RANK_COUNTS, SIZES_K
from repro.model.framework.efficiency import parallel_efficiency
from repro.suite import CPU_BENCHMARKS

__all__ = ["generate", "scaling_metrics"]

#: Strong-scaling metric -> (column header, cell format, value).
_METRICS = {
    "ts_per_s": ("TS/s", ".4g", lambda r, _base: r.ts_per_s),
    "ts_per_s_per_watt": ("TS/s/W", ".4g", lambda r, _base: r.energy_efficiency),
    "parallel_efficiency_pct": (
        "par.eff %", ".1f",
        lambda r, base: 100.0 * parallel_efficiency(r.ts_per_s, base, r.resources),
    ),
    "gpu_utilization": ("util", ".2f", lambda r, _base: r.utilization),
}


def scaling_metrics(*names: str) -> RowFamily:
    """Row family of Figures 6, 9, 10 and 13: ``{name: metric}``."""
    return RowFamily(
        value=lambda record, base: {n: _METRICS[n][2](record, base) for n in names},
        columns=tuple(_METRICS[n][0] for n in names),
        cells=lambda m: [format(m[n], _METRICS[n][1]) for n in names],
    )


def generate(
    benchmarks: Iterable[str] = CPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = RANK_COUNTS,
) -> FigureData:
    """``series[(bench, size, ranks)] -> {ts_per_s, ts_per_s_per_watt,
    parallel_efficiency_pct}``."""
    return sweep_figure(
        "Figure 6", "CPU performance / energy efficiency / parallel efficiency",
        "cpu", {"benchmark": benchmarks}, sizes_k, ranks,
        scaling_metrics("ts_per_s", "ts_per_s_per_watt", "parallel_efficiency_pct"),
    )
