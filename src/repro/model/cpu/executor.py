"""Simulated CPU-instance experiment runs (Section 5's campaign).

:func:`simulate_cpu_run` evaluates one configuration — benchmark, atom
count, MPI ranks, precision, k-space threshold — on the modelled
dual-socket Xeon 8358 node and returns everything the paper's CPU
figures plot: the Table 1 task breakdown (Figure 3), total MPI time and
imbalance (Figure 4), the MPI function breakdown (Figure 5), and the
performance / energy-efficiency / parallel-efficiency triple (Figure 6).

Every modeled executor — this one, the multi-node estimator, the hybrid
MPI x OpenMP run and the host side of the GPU run — starts from the same
:func:`rank_setup`: the workload, the k-space threshold in effect, the
rank geometry, per-rank compute times with their jitter, and the PPPM
grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.precision import parse_precision
from repro.model.costs import ComputeTimes, CpuCostModel, kspace_grid
from repro.model.cpu import SubdomainGeometry
from repro.model.cpu.mpi_model import MpiModel
from repro.model.framework.efficiency import ns_per_day
from repro.model.platforms.instances import CPU_INSTANCE, InstanceSpec
from repro.model.precision import Precision
from repro.model.workloads import WorkloadParams, get_workload
from repro.observability.telemetry.providers import CpuPowerModel
from repro.observability.timeline import RankTimeline
from repro.observability.tracer import NULL_TRACER, resolve_tracer

__all__ = ["CpuRunResult", "RankSetup", "rank_setup", "run_on_ranks", "simulate_cpu_run"]


@dataclass
class CpuRunResult:
    """Everything measured (modelled) for one CPU-instance run."""

    benchmark: str
    n_atoms: int
    n_ranks: int
    precision: str
    kspace_error: float | None
    #: Mean per-rank seconds per timestep, by Table 1 task (incl. Comm).
    task_seconds: dict[str, float]
    #: Mean per-rank MPI seconds per step, by MPI function.
    mpi_function_seconds: dict[str, float]
    #: Seconds per timestep of the whole run (slowest rank).
    step_seconds: float
    #: Performance in timesteps/second.
    ts_per_s: float
    #: Share of run time inside MPI calls (Figure 4 top).
    mpi_time_fraction: float
    #: Share of run time waiting in MPI calls (Figure 4 bottom).
    mpi_imbalance_fraction: float
    #: Modelled node power draw and the derived efficiency.
    power_watts: float
    energy_efficiency: float
    #: Modelled average physical-core utilization.
    core_utilization: float
    #: Resident memory estimate in bytes.
    memory_bytes: float
    #: Modelled per-rank compute seconds (``None`` when a result is
    #: constructed without the per-rank detail, e.g. in summaries).
    per_rank_compute_seconds: np.ndarray | None = field(repr=False, default=None)
    #: Per-rank span timeline the imbalance figures aggregate over.
    timeline: RankTimeline | None = field(repr=False, default=None)

    def ns_per_day(self, timestep_fs: float) -> float:
        """Simulated nanoseconds per wall-clock day at this throughput."""
        return ns_per_day(self.ts_per_s, timestep_fs)


@dataclass(frozen=True)
class RankSetup:
    """What a modeled executor derives first for one configuration."""

    workload: WorkloadParams
    n_atoms: int
    n_ranks: int
    #: The threshold in effect: the caller's, else the workload's
    #: baseline (``None`` for a benchmark without k-space).
    kspace_error: float | None
    geometry: SubdomainGeometry
    #: Mean per-rank compute seconds by Table 1 task, before jitter.
    compute: ComputeTimes
    #: Per-rank compute-time multipliers (the imbalance model).
    jitter: np.ndarray
    #: PPPM grid points (0 without k-space).
    grid_points: float

    @property
    def per_rank_compute(self) -> np.ndarray:
        """Jittered per-rank compute seconds.  The FFT is a globally
        synchronized collective, so only the local work jitters."""
        jitterable = self.compute.total - self.compute.kspace_fft
        return jitterable * self.jitter + self.compute.kspace_fft


def rank_setup(
    benchmark: str | WorkloadParams,
    n_atoms: int,
    n_ranks: int,
    *,
    cost_model: CpuCostModel,
    mpi: MpiModel,
    kspace_error: float | None = None,
    seed: int = 0,
) -> RankSetup:
    """Decompose ``benchmark`` over ``n_ranks`` and cost each rank's step."""
    workload = get_workload(benchmark)
    if kspace_error is not None and not workload.has_kspace:
        raise ValueError(f"{workload.name} computes no long-range forces")
    error = kspace_error if kspace_error is not None else (
        workload.kspace_error if workload.has_kspace else None
    )
    geometry = SubdomainGeometry.build(
        n_ranks,
        workload.box_lengths(n_atoms),
        ghost_cutoff=workload.cutoff + workload.skin,
        number_density=workload.number_density,
        quasi_2d=workload.quasi_2d,
    )
    compute = cost_model.compute_times(
        workload, n_atoms / n_ranks, n_ranks, kspace_error=error, n_atoms_total=n_atoms
    )
    grid_points = 0.0
    if workload.has_kspace:
        grid_points = float(np.prod(kspace_grid(workload, n_atoms, error)[1]))
    return RankSetup(
        workload=workload,
        n_atoms=n_atoms,
        n_ranks=n_ranks,
        kspace_error=error,
        geometry=geometry,
        compute=compute,
        jitter=mpi.rank_jitter(workload, n_ranks, n_atoms, seed),
        grid_points=grid_points,
    )


def simulate_cpu_run(
    benchmark: str | WorkloadParams,
    n_atoms: int,
    n_ranks: int,
    *,
    precision: Precision | str = Precision.MIXED,
    kspace_error: float | None = None,
    seed: int = 0,
    instance: InstanceSpec = CPU_INSTANCE,
    cost_model: CpuCostModel | None = None,
    mpi_model: MpiModel | None = None,
    tracer: object = None,
) -> CpuRunResult:
    """Model one run of ``benchmark`` with ``n_atoms`` on ``n_ranks`` cores.

    ``benchmark`` is a suite name or the :class:`WorkloadParams` to
    model (an ablation passes an edited copy).  The paper maps each MPI
    process to its own physical core, filling one socket before the
    second (Section 5); ``instance`` bounds the rank count accordingly.
    """
    instance.validate_resources(n_ranks=n_ranks)
    precision = parse_precision(precision)
    model = cost_model if cost_model is not None else CpuCostModel(precision=precision)
    mpi = mpi_model if mpi_model is not None else MpiModel()
    setup = rank_setup(
        benchmark, n_atoms, n_ranks,
        cost_model=model, mpi=mpi, kspace_error=kspace_error, seed=seed,
    )
    return run_on_ranks(setup, precision, mpi, instance, tracer)


def run_on_ranks(
    setup: RankSetup,
    precision: Precision,
    mpi: MpiModel,
    instance: InstanceSpec = CPU_INSTANCE,
    tracer: object = None,
) -> CpuRunResult:
    """The pure-MPI CPU-instance run of a :func:`rank_setup`."""
    workload, compute, n_ranks = setup.workload, setup.compute, setup.n_ranks
    per_rank_compute = setup.per_rank_compute
    mpi_times = mpi.step_times(
        workload, setup.geometry, per_rank_compute, kspace_grid_points=setup.grid_points
    )

    # The run-loop step time: the slowest rank's compute plus the uniform
    # communication cost (waits fill the gap on the others).  MPI_Init is
    # outside the run loop, so it does not slow the timestep rate but
    # does count toward profiled MPI time (exactly the paper's setup).
    init = mpi_times.per_function["MPI_Init"]
    uniform_comm = mpi_times.total - mpi_times.imbalance - init
    step_seconds = float(np.max(per_rank_compute)) + uniform_comm
    ts_per_s = 1.0 / step_seconds

    # Task breakdown (mean over ranks).  FFT-transpose comm is charged to
    # Kspace, as LAMMPS' own timing does; the rest of MPI goes to Comm.
    # MPI_Send carries both reverse-comm and FFT bytes: split it by origin.
    kspace_comm = mpi_times.per_function["MPI_Waitany"]
    if setup.grid_points > 0 and n_ranks > 1:
        fft_send = 8.0 * setup.grid_points * 4.0 / n_ranks / mpi.bandwidth_b_s
        kspace_comm += min(fft_send, mpi_times.per_function["MPI_Send"])
    comm_task = mpi_times.total - init - kspace_comm

    task_seconds = {
        "Bond": compute.bond,
        "Comm": comm_task,
        "Kspace": compute.kspace + kspace_comm,
        "Modify": compute.modify,
        "Neigh": compute.neigh,
        "Other": compute.other,
        "Output": compute.output,
        "Pair": compute.pair,
    }

    # Build the per-rank timeline the imbalance figures aggregate over:
    # every rank computes, waits at the implicit barrier until the
    # slowest rank arrives, then all ranks pay the uniform comm cost.
    # Figure 4's imbalance is the mean recorded wait span, which equals
    # the analytic ``mpi_times.imbalance`` because the spans store the
    # model's per-rank durations verbatim.
    timeline = RankTimeline.from_model(
        per_rank_compute,
        mpi_times.wait_per_rank,
        comm_seconds=uniform_comm,
    )
    profiled_total = step_seconds + init
    mpi_fraction = mpi_times.total / profiled_total if n_ranks > 1 else 0.0
    imbalance_fraction = (
        timeline.imbalance_seconds() / profiled_total if n_ranks > 1 else 0.0
    )
    # Env resolution is deliberately skipped here: an env-created tracer
    # would be invisible to the caller, so only an explicit one records.
    run_tracer = resolve_tracer(tracer) if tracer is not None else NULL_TRACER
    if run_tracer.enabled:
        timeline.export(run_tracer)

    busy = float(np.mean(per_rank_compute)) / step_seconds
    utilization = min(1.0, workload.core_utilization * busy**0.3)
    power = CpuPowerModel(
        instance.idle_watts, instance.cpu.tdp_watts, instance.cpu.cores, instance.sockets
    ).watts(n_ranks, utilization)

    return CpuRunResult(
        benchmark=workload.name,
        n_atoms=setup.n_atoms,
        n_ranks=n_ranks,
        precision=str(precision.value),
        kspace_error=setup.kspace_error,
        task_seconds=task_seconds,
        mpi_function_seconds=dict(mpi_times.per_function),
        step_seconds=step_seconds,
        ts_per_s=ts_per_s,
        mpi_time_fraction=mpi_fraction,
        mpi_imbalance_fraction=imbalance_fraction,
        power_watts=power,
        energy_efficiency=ts_per_s / power,
        core_utilization=utilization,
        memory_bytes=workload.memory_bytes(setup.n_atoms),
        per_rank_compute_seconds=per_rank_compute,
        timeline=timeline,
    )
