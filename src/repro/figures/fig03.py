"""Figure 3 — CPU execution-time breakdown by task.

One panel per (benchmark, size): the Table 1 task shares for each MPI
process count.  The paper's headline observations, asserted by the
benchmark harness:

* the Pair share tracks neighbors/atom (LJ > EAM >> Chain/Chute even
  though Chain and LJ share a force field);
* LJ spends > 75 % of a serial run in Pair;
* parallelization shrinks the Pair share less for larger systems, while
  Comm grows to dominate small systems at high rank counts.
"""

from __future__ import annotations

from typing import Iterable

from repro.figures.base import FigureData, percent_breakdown, sweep_figure
from repro.figures.campaign import RANK_COUNTS, SIZES_K
from repro.parallel.executor import BREAKDOWN_TASKS
from repro.suite import CPU_BENCHMARKS

__all__ = ["generate", "TASK_SHARES"]

#: Row family of Figures 3, 7 and 11: one percentage per Table 1 task.
TASK_SHARES = percent_breakdown("task_fractions", BREAKDOWN_TASKS)


def generate(
    benchmarks: Iterable[str] = CPU_BENCHMARKS,
    sizes_k: Iterable[int] = SIZES_K,
    ranks: Iterable[int] = RANK_COUNTS,
) -> FigureData:
    """``series[(benchmark, size_k, n_ranks)] -> {task: fraction}``."""
    return sweep_figure(
        "Figure 3", "CPU task breakdown per benchmark/size/rank-count",
        "cpu", {"benchmark": benchmarks}, sizes_k, ranks, TASK_SHARES,
    )
