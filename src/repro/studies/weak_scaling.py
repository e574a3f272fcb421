"""Weak-scaling study: fixed atoms per rank (the prior-work view).

Section 4.1 contrasts the paper with earlier LAMMPS studies that
"focused on proving good weak scaling properties".  Here the simulated
node runs with a constant per-rank subdomain (e.g. 32k atoms/rank) as
the rank count grows; weak-scaling efficiency is
``t_step(1 rank) / t_step(n ranks)`` at constant work per rank, and —
unlike the strong-scaling pictures of Figures 6/9 — it stays high,
because the surface-to-volume ratio of each subdomain is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.cpu.executor import simulate_cpu_run
from repro.model.platforms.instances import CPU_INSTANCE, InstanceSpec

__all__ = ["WeakScalingPoint", "weak_scaling_study"]


@dataclass(frozen=True)
class WeakScalingPoint:
    n_ranks: int
    n_atoms: int
    ts_per_s: float
    #: t(1) / t(n) at fixed atoms/rank.
    weak_efficiency: float


def weak_scaling_study(
    benchmark: str = "lj",
    atoms_per_rank: int = 32_000,
    rank_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    *,
    instance: InstanceSpec = CPU_INSTANCE,
    seed: int = 0,
) -> list[WeakScalingPoint]:
    """Grow the system with the rank count (constant per-rank work)."""
    if atoms_per_rank < 1:
        raise ValueError("atoms_per_rank must be positive")
    baseline = simulate_cpu_run(
        benchmark, atoms_per_rank, 1, seed=seed, instance=instance
    )
    points = []
    for n_ranks in rank_counts:
        result = simulate_cpu_run(
            benchmark,
            atoms_per_rank * n_ranks,
            n_ranks,
            seed=seed,
            instance=instance,
        )
        points.append(
            WeakScalingPoint(
                n_ranks=n_ranks,
                n_atoms=atoms_per_rank * n_ranks,
                ts_per_s=result.ts_per_s,
                weak_efficiency=baseline.step_seconds / result.step_seconds,
            )
        )
    return points
