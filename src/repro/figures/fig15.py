"""Figure 15 — LJ and Rhodopsin CPU performance by floating-point precision.

Anchors: LJ 2048k/64 ranks drops 115.2 -> 98.9 TS/s from single to
double; Rhodopsin drops 11.5 -> 8.4 TS/s; mixed stays close to single.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, RowFamily, sweep_figure
from repro.figures.campaign import RANK_COUNTS, SIZES_K
from repro.model.precision import PRECISIONS

__all__ = ["generate", "PRECISION_BENCHMARKS", "PRECISION_MODES", "THROUGHPUT"]

#: The paper plots LJ and Rhodopsin (EAM behaves like LJ, Chain like
#: Rhodopsin — asserted separately).
PRECISION_BENCHMARKS: tuple[str, ...] = ("lj", "rhodo")

#: The precision axis of Figures 15 and 16, as spec strings.
PRECISION_MODES: tuple[str, ...] = tuple(p.value for p in PRECISIONS)

#: Row family of Figures 15 and 16: bare ``ts_per_s``.
THROUGHPUT = RowFamily(lambda r, _base: r.ts_per_s, ("TS/s",), lambda ts: [f"{ts:.4g}"])


def generate(
    benchmarks: Iterable[str] = PRECISION_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = RANK_COUNTS,
) -> FigureData:
    """``series[(bench, precision, size, ranks)] -> ts_per_s``."""
    return sweep_figure(
        "Figure 15", "CPU performance by floating-point precision (LJ, Rhodopsin)",
        "cpu", {"benchmark": benchmarks, "precision": PRECISION_MODES},
        sizes_k, ranks, THROUGHPUT,
    )
