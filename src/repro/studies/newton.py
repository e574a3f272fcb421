"""Newton's-third-law ablation for the Chute benchmark.

Section 3 singles Chute out: "Unlike all previous benchmarks, this
experiment does not leverage Newton's third law to reduce the number of
pairwise interactions to compute."  Turning Newton *on* halves the pair
work but adds the reverse (force) ghost exchange — the classic LAMMPS
``newton on/off`` trade-off.  This study evaluates both settings on the
model and reports the crossover behaviour: Newton-on wins at scale
(compute dominates), while the savings shrink for small, comm-bound
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.cpu.executor import simulate_cpu_run
from repro.model.workloads import get_workload

__all__ = ["NewtonComparison", "newton_ablation"]


@dataclass(frozen=True)
class NewtonComparison:
    """Newton off (the paper's setting) vs on, for one configuration."""

    n_atoms: int
    n_ranks: int
    ts_newton_off: float
    ts_newton_on: float

    @property
    def speedup_from_newton(self) -> float:
        return self.ts_newton_on / self.ts_newton_off


def newton_ablation(
    benchmark: str = "chute",
    sizes: tuple[int, ...] = (32_000, 2_048_000),
    rank_counts: tuple[int, ...] = (1, 64),
    seed: int = 0,
) -> list[NewtonComparison]:
    """Compare ``newton off`` (paper setting for Chute) against ``on``."""
    workload = get_workload(benchmark)
    off = replace(workload, newton=False)
    on = replace(workload, newton=True)
    return [
        NewtonComparison(
            n_atoms=n_atoms,
            n_ranks=n_ranks,
            ts_newton_off=simulate_cpu_run(off, n_atoms, n_ranks, seed=seed).ts_per_s,
            ts_newton_on=simulate_cpu_run(on, n_atoms, n_ranks, seed=seed).ts_per_s,
        )
        for n_atoms in sizes
        for n_ranks in rank_counts
    ]
