"""Hybrid MPI x OpenMP execution model (the paper's Section 2.2 aside).

The INTEL package offers two parallelization levels: MPI spatial
decomposition and OpenMP threading within a rank.  The authors
"experimented with OpenMP and observed that, for our experiments, the
OpenMP parallelization (or a combination of the two) was less
performing than the MPI-based one in all cases" — and therefore ran the
whole campaign with one MPI rank per core.

This module models *why*: OpenMP threading only covers the loop bodies
(a serial fraction per task remains), pays a fork-join barrier per
parallel region, and shares the neighbor-list build poorly — while the
MPI decomposition parallelizes the entire timestep including the
bookkeeping.  ``simulate_hybrid_run`` lets any core budget be split
between ranks and threads; tests assert the paper's conclusion that the
pure-MPI split wins for every suite benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.md.precision import parse_precision
from repro.model.costs import CpuCostModel
from repro.model.cpu.executor import CpuRunResult, rank_setup, run_on_ranks
from repro.model.cpu.mpi_model import MpiModel
from repro.model.platforms.instances import CPU_INSTANCE, InstanceSpec
from repro.model.precision import Precision
from repro.model.workloads import WorkloadParams

__all__ = ["OpenMpModel", "simulate_hybrid_run", "best_hybrid_split"]


@dataclass(frozen=True)
class OpenMpModel:
    """Threading-efficiency parameters of the INTEL package's OpenMP path.

    * ``parallel_fraction``: share of a task's work inside ``omp for``
      regions (Amdahl's serial remainder covers list management, fix
      bookkeeping and reductions);
    * ``barrier_s``: fork-join cost per parallel region per step;
    * ``regions_per_step``: how many parallel regions one timestep opens
      (pair, neighbor, integration, fix loops);
    * ``neigh_parallel_fraction``: the neighbor build threads worse than
      the force loops (shared bins, atomic updates).
    """

    parallel_fraction: float = 0.93
    neigh_parallel_fraction: float = 0.75
    barrier_s: float = 4.0e-6
    regions_per_step: int = 8

    def thread_speedup(self, n_threads: int, parallel_fraction: float) -> float:
        """Amdahl speedup of one task over ``n_threads`` threads."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        serial = 1.0 - parallel_fraction
        return 1.0 / (serial + parallel_fraction / n_threads)


def simulate_hybrid_run(
    benchmark: str | WorkloadParams,
    n_atoms: int,
    n_ranks: int,
    n_threads: int,
    *,
    precision: Precision | str = Precision.MIXED,
    kspace_error: float | None = None,
    seed: int = 0,
    instance: InstanceSpec = CPU_INSTANCE,
    omp: OpenMpModel | None = None,
) -> CpuRunResult:
    """Model ``n_ranks`` MPI ranks, each threading over ``n_threads`` cores.

    ``n_ranks * n_threads`` must fit the instance's physical cores (the
    paper maps work to physical cores only, no hyperthreads).
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    precision = parse_precision(precision)
    instance.validate_resources(n_ranks=n_ranks * n_threads)
    omp = omp if omp is not None else OpenMpModel()

    # The MPI layer behaves exactly as in the pure-MPI run with n_ranks
    # ranks; threading shrinks each rank's compute time per Amdahl plus
    # the per-region barrier overhead.
    mpi = MpiModel()
    setup = rank_setup(
        benchmark, n_atoms, n_ranks,
        cost_model=CpuCostModel(precision=precision), mpi=mpi,
        kspace_error=kspace_error, seed=seed,
    )
    base = run_on_ranks(setup, precision, mpi, instance)
    if n_threads == 1:
        return base

    compute = setup.compute
    loops = omp.thread_speedup(n_threads, omp.parallel_fraction)
    neigh = omp.thread_speedup(n_threads, omp.neigh_parallel_fraction)
    threaded = (
        (compute.pair + compute.bond + compute.modify) / loops
        + compute.neigh / neigh
        + compute.kspace  # FFTs stay rank-level in the reference build
        + compute.output
        + compute.other  # bookkeeping is the serial remainder
        + omp.regions_per_step * omp.barrier_s
    )
    speedup = compute.total / threaded

    # Scale the timestep rate; MPI overheads (per rank) are unchanged.
    max_compute = float(base.per_rank_compute_seconds.max())
    step_seconds = max_compute / speedup + (base.step_seconds - max_compute)
    ts_per_s = 1.0 / step_seconds

    # Kspace, Output and Other are not threaded.
    scaled_tasks = dict(base.task_seconds)
    for task in ("Pair", "Bond", "Modify", "Neigh"):
        scaled_tasks[task] /= neigh if task == "Neigh" else loops

    return CpuRunResult(
        benchmark=base.benchmark,
        n_atoms=base.n_atoms,
        n_ranks=n_ranks,
        precision=base.precision,
        kspace_error=base.kspace_error,
        task_seconds=scaled_tasks,
        mpi_function_seconds=base.mpi_function_seconds,
        step_seconds=step_seconds,
        ts_per_s=ts_per_s,
        mpi_time_fraction=base.mpi_time_fraction,
        mpi_imbalance_fraction=base.mpi_imbalance_fraction,
        power_watts=base.power_watts,
        energy_efficiency=ts_per_s / base.power_watts,
        core_utilization=base.core_utilization,
        memory_bytes=base.memory_bytes,
        per_rank_compute_seconds=base.per_rank_compute_seconds / speedup,
    )


def best_hybrid_split(
    benchmark: str,
    n_atoms: int,
    total_cores: int = 64,
    *,
    instance: InstanceSpec = CPU_INSTANCE,
) -> tuple[int, int, float]:
    """Search all (ranks, threads) factorizations of ``total_cores``.

    Returns ``(n_ranks, n_threads, ts_per_s)`` of the fastest split —
    which the tests show is always the pure-MPI one, matching the
    paper's observation.
    """
    best: tuple[int, int, float] | None = None
    for n_ranks in range(1, total_cores + 1):
        if total_cores % n_ranks:
            continue
        n_threads = total_cores // n_ranks
        result = simulate_hybrid_run(
            benchmark, n_atoms, n_ranks, n_threads, instance=instance
        )
        if best is None or result.ts_per_s > best[2]:
            best = (n_ranks, n_threads, result.ts_per_s)
    assert best is not None
    return best
