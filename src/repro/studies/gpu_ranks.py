"""Ranks-per-GPU tuning study (the paper's empirical 48-rank finding).

Section 6.2: "We empirically tested different numbers of MPI processes
per device for different system sizes, and in any case no more than 48
total MPI processes were beneficial, despite having 52 available
hardware cores."  This study sweeps the total-rank budget of the GPU
executor and locates the knee: more ranks raise device utilization
(smaller subdomains time-multiplex the GPU and parallelize the host
work) until serialized kernel launches and MPI overhead win.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.gpu.executor import GpuModelConfig, simulate_gpu_run

__all__ = ["RankTuningPoint", "gpu_rank_tuning_study", "best_total_ranks"]


@dataclass(frozen=True)
class RankTuningPoint:
    total_ranks: int
    ranks_per_gpu: int
    ts_per_s: float
    gpu_utilization: float


def gpu_rank_tuning_study(
    benchmark: str = "lj",
    n_atoms: int = 2_048_000,
    n_gpus: int = 8,
    rank_budgets: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 52),
) -> list[RankTuningPoint]:
    """Sweep the total MPI-rank budget on the 8-GPU node."""
    points = []
    for budget in rank_budgets:
        config = GpuModelConfig(max_total_ranks=budget)
        result = simulate_gpu_run(benchmark, n_atoms, n_gpus, config=config)
        points.append(
            RankTuningPoint(
                total_ranks=result.total_ranks,
                ranks_per_gpu=result.total_ranks // n_gpus,
                ts_per_s=result.ts_per_s,
                gpu_utilization=result.gpu_utilization,
            )
        )
    return points


def best_total_ranks(points: list[RankTuningPoint]) -> int:
    """The rank budget with the highest throughput."""
    if not points:
        raise ValueError("no tuning points supplied")
    return max(points, key=lambda p: p.ts_per_s).total_ranks
