"""Multi-node scale-out estimator (the Section 4.1 contrast).

The paper motivates its single-node focus by noting that "multi-node
strong scaling ... rapidly becomes inefficient (e.g., 33% parallel
efficiency for LJ on Haswell with 64 nodes)".  This module extends the
single-node model across an interconnect so that contrast can be
reproduced: each node is the CPU instance running one rank per core,
ghost exchanges that cross node boundaries pay network (not
shared-memory) bandwidth and latency, and the collective/imbalance
terms span the whole job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.costs import CpuCostModel
from repro.model.cpu.executor import rank_setup
from repro.model.cpu.mpi_model import FORCE_BYTES, MpiModel
from repro.model.platforms.instances import CPU_INSTANCE, InstanceSpec
from repro.model.workloads import WorkloadParams

__all__ = ["MultiNodeResult", "NetworkModel", "simulate_multinode_run"]


@dataclass(frozen=True)
class NetworkModel:
    """Interconnect parameters (100 Gb/s-class fabric defaults)."""

    #: Effective per-rank bandwidth for inter-node messages.  Far below
    #: the NIC line rate: all ranks on a node share it and per-message
    #: payloads are small.
    bandwidth_b_s: float = 1.2e8
    latency_s: float = 1.5e-6
    allreduce_latency_s: float = 3.0e-6


@dataclass
class MultiNodeResult:
    benchmark: str
    n_atoms: int
    n_nodes: int
    total_ranks: int
    step_seconds: float
    ts_per_s: float
    #: Share of ghost-exchange links that cross node boundaries.
    cross_node_fraction: float


def _cross_node_fraction(ranks_per_node: int) -> float:
    """Fraction of a rank's neighbor links that leave its node.

    Node blocks are ~cubic groups of ranks; a block of side ``b`` keeps
    ``(b-1)/b`` of each dimension's links internal.
    """
    side = max(1.0, ranks_per_node ** (1.0 / 3.0))
    return min(1.0, 1.0 / side)


def simulate_multinode_run(
    benchmark: str | WorkloadParams,
    n_atoms: int,
    n_nodes: int,
    *,
    instance: InstanceSpec = CPU_INSTANCE,
    ranks_per_node: int | None = None,
    network: NetworkModel | None = None,
    kspace_error: float | None = None,
    seed: int = 0,
) -> MultiNodeResult:
    """Model ``benchmark`` across ``n_nodes`` CPU-instance nodes."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    network = network if network is not None else NetworkModel()
    per_node = ranks_per_node if ranks_per_node is not None else instance.total_cores
    instance.validate_resources(n_ranks=per_node)
    total_ranks = n_nodes * per_node

    mpi = MpiModel()
    setup = rank_setup(
        benchmark, n_atoms, total_ranks,
        cost_model=CpuCostModel(), mpi=mpi, kspace_error=kspace_error, seed=seed,
    )
    workload, geometry = setup.workload, setup.geometry
    barrier = float(np.max(setup.per_rank_compute))

    # Ghost exchange: split intra-node (shared memory) vs inter-node.
    cross = _cross_node_fraction(per_node) if n_nodes > 1 else 0.0
    phases_bytes = geometry.exchange_bytes(workload.comm_bytes_per_atom)
    if workload.newton:
        phases_bytes += geometry.exchange_bytes(FORCE_BYTES)
    intra = (1.0 - cross) * phases_bytes / mpi.bandwidth_b_s
    inter = cross * phases_bytes / network.bandwidth_b_s
    n_msgs = geometry.exchange_messages * (2 if workload.newton else 1)
    latency = n_msgs * (
        (1.0 - cross) * mpi.latency_s + cross * network.latency_s
    )

    allreduce = (
        (2 if workload.modify_weight > 4 else 1)
        * network.allreduce_latency_s
        * np.ceil(np.log2(max(total_ranks, 2)))
    )

    kspace_comm = 0.0
    if workload.has_kspace:
        slab_bytes = setup.grid_points * 4.0 / total_ranks
        # The FFT all-to-all is all inter-node traffic beyond one node.
        bw = mpi.bandwidth_b_s if n_nodes == 1 else network.bandwidth_b_s
        kspace_comm = 2.0 * slab_bytes / bw

    step_seconds = barrier + intra + inter + latency + allreduce + kspace_comm
    return MultiNodeResult(
        benchmark=workload.name,
        n_atoms=n_atoms,
        n_nodes=n_nodes,
        total_ranks=total_ranks,
        step_seconds=step_seconds,
        ts_per_s=1.0 / step_seconds,
        cross_node_fraction=cross,
    )
