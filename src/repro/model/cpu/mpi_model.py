"""MPI function-level time accounting and the imbalance model.

Reproduces the quantities the paper profiles in Section 5.1:

* the total per-rank share of time spent inside MPI calls (Figure 4 top),
* the breakdown over the most relevant functions — MPI_Init, MPI_Send,
  MPI_Sendrecv, MPI_Wait, MPI_Waitany, MPI_Allreduce, others (Figure 5),
* the *MPI imbalance*: time spent in MPI calls waiting for data
  (Figure 4 bottom).

Model choices mirror the paper's findings:

* MPI_Init's per-rank time grows with the rank count and scales with
  the total execution time (the paper verified this by running 100x
  more timesteps) — modelled as a rank-count-dependent fraction of the
  per-step busy time;
* transfer terms (Send/Sendrecv/Allreduce) grow with the exchanged
  bytes, so they "become more prominent for bigger systems";
* waiting comes from per-rank compute jitter whose amplitude is a
  per-benchmark property (Chain/Chute >> Rhodopsin > LJ ~ EAM).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.model.workloads import WorkloadParams
from repro.parallel.decomposition import SubdomainGeometry

__all__ = ["MPI_FUNCTIONS", "MpiTimes", "MpiModel"]

#: The functions the paper's Figures 5 and 12 break MPI time into.
MPI_FUNCTIONS = (
    "MPI_Allreduce",
    "MPI_Init",
    "MPI_Send",
    "MPI_Sendrecv",
    "MPI_Wait",
    "MPI_Waitany",
    "others",
)

#: Reverse-comm payload per ghost atom: three force components.  The
#: forward payload is the workload's ``comm_bytes_per_atom``.
FORCE_BYTES = 24.0


@dataclass
class MpiTimes:
    """Per-step MPI seconds for one simulated run (averaged over ranks)."""

    per_function: dict[str, float] = field(
        default_factory=lambda: {fn: 0.0 for fn in MPI_FUNCTIONS}
    )
    #: Per-rank waiting time (the imbalance component), seconds/step.
    wait_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(1))
    #: Per-rank total MPI time, seconds/step.
    total_per_rank: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def total(self) -> float:
        return float(np.mean(self.total_per_rank))

    @property
    def imbalance(self) -> float:
        return float(np.mean(self.wait_per_rank))


class MpiModel:
    """Single-node Intel-MPI cost model.

    Parameters are per-message latency, effective per-rank bandwidth
    (shared-memory transport), and the MPI_Init amortization coefficient
    calibrated against Figures 4/5.
    """

    def __init__(
        self,
        *,
        latency_s: float = 2.0e-6,
        bandwidth_b_s: float = 1.5e9,
        allreduce_latency_s: float = 1.5e-6,
        init_base_s: float = 0.6,
        init_fraction_per_log2: float = 0.002,
        n_steps: int = 10_000,
    ) -> None:
        self.latency_s = float(latency_s)
        self.bandwidth_b_s = float(bandwidth_b_s)
        self.allreduce_latency_s = float(allreduce_latency_s)
        #: Fixed per-rank MPI_Init cost of one run (amortized over the
        #: profiling runs' 10k timesteps, Section 5.1).
        self.init_base_s = float(init_base_s)
        self.init_fraction_per_log2 = float(init_fraction_per_log2)
        self.n_steps = int(n_steps)

    # ------------------------------------------------------------------
    def init_seconds_per_step(self, n_ranks: int, mean_compute: float) -> float:
        """Amortized per-step MPI_Init time.

        Two components, both observed by the paper: a fixed per-run
        setup cost (dominant for small/fast systems, making Init the
        largest MPI entry in Figure 5's 32k panels), plus a part that
        "scales with the total execution time" and grows with the rank
        count (verified by the authors with 100x longer runs).
        """
        if n_ranks <= 1:
            return 0.0
        fixed = self.init_base_s / self.n_steps
        scaling = self.init_fraction_per_log2 * math.log2(n_ranks) * mean_compute
        return fixed + scaling

    def rank_jitter(
        self, workload: WorkloadParams, n_ranks: int, n_atoms: int, seed: int
    ) -> np.ndarray:
        """Deterministic per-rank compute-time multipliers ``1 + eps``.

        The jitter amplitude is the benchmark's imbalance property; the
        seed folds in the configuration so repeated runs are identical
        but different setups decorrelate (as real profiles do).
        """
        if n_ranks == 1:
            return np.ones(1)
        # A stable (process-independent) seed mix; Python's hash() is
        # salted per process and would break run-to-run determinism.
        name_tag = zlib.crc32(workload.name.encode())
        rng = np.random.default_rng(
            np.random.SeedSequence([name_tag, n_ranks, n_atoms, seed])
        )
        eps = rng.normal(0.0, workload.imbalance_amplitude, n_ranks)
        # Centre the jitter so the mean rank matches the cost model and
        # the slowest rank is never *faster* than it (keeps parallel
        # efficiency <= 100%).
        eps -= eps.mean()
        return np.maximum(1.0 + eps, 0.5)

    # ------------------------------------------------------------------
    def step_times(
        self,
        workload: WorkloadParams,
        geometry: SubdomainGeometry,
        compute_seconds: np.ndarray,
        *,
        kspace_grid_points: float = 0.0,
    ) -> MpiTimes:
        """Per-step MPI times given each rank's compute seconds.

        ``compute_seconds`` already includes the per-rank jitter; the
        barrier at the end of the force stage converts the spread into
        MPI_Wait time on the fast ranks.
        """
        n_ranks = geometry.n_ranks
        times = MpiTimes(
            wait_per_rank=np.zeros(n_ranks), total_per_rank=np.zeros(n_ranks)
        )
        if n_ranks == 1:
            return times
        compute_seconds = np.asarray(compute_seconds, dtype=float)
        if len(compute_seconds) != n_ranks:
            raise ValueError("one compute time per rank required")

        # --- ghost exchanges (forward positions, reverse forces) -------
        phases = 2 if workload.newton else 1
        bytes_fwd = geometry.exchange_bytes(workload.comm_bytes_per_atom)
        bytes_rev = geometry.exchange_bytes(FORCE_BYTES) if workload.newton else 0.0
        transfer = (bytes_fwd + bytes_rev) / self.bandwidth_b_s
        n_msgs = geometry.exchange_messages * phases
        latency = n_msgs * self.latency_s

        # LAMMPS' forward comm uses MPI_Sendrecv sweeps; the reverse
        # (force) path posts sends and waits on receives.
        sendrecv = bytes_fwd / self.bandwidth_b_s + 0.5 * latency
        send = bytes_rev / self.bandwidth_b_s + 0.25 * latency
        protocol_wait = 0.25 * latency

        # --- collective operations --------------------------------------
        # Thermo reductions every step; the NPT barostat adds a second.
        n_allreduce = 2 if workload.modify_weight > 4 else 1
        allreduce = n_allreduce * self.allreduce_latency_s * math.ceil(
            math.log2(n_ranks)
        )

        # --- k-space grid communication (FFT transposes) ----------------
        kspace_send = 0.0
        kspace_waitany = 0.0
        if kspace_grid_points > 0:
            # FFT transposes move each rank's grid slab across ranks;
            # 4 bytes/point (-DFFT_SINGLE).  The all-to-all overlaps
            # heavily on a single node, so the per-step cost is ~two
            # slab passes rather than two per FFT.
            slab_bytes = kspace_grid_points * 4.0 / n_ranks
            kspace_send = 2.0 * slab_bytes / self.bandwidth_b_s
            kspace_waitany = (
                min(n_ranks - 1, 8) * self.latency_s + 0.25 * kspace_send
            )

        # --- MPI_Init amortization ---------------------------------------
        init = self.init_seconds_per_step(n_ranks, float(np.mean(compute_seconds)))

        # --- imbalance waits ---------------------------------------------
        barrier = float(np.max(compute_seconds))
        wait_imbalance = barrier - compute_seconds

        base = send + sendrecv + protocol_wait + allreduce + kspace_send + kspace_waitany
        others = 0.05 * base

        times.per_function = {
            "MPI_Allreduce": allreduce,
            "MPI_Init": init,
            "MPI_Send": send + kspace_send,
            "MPI_Sendrecv": sendrecv,
            "MPI_Wait": protocol_wait + float(np.mean(wait_imbalance)),
            "MPI_Waitany": kspace_waitany,
            "others": others,
        }
        times.wait_per_rank = wait_imbalance
        times.total_per_rank = (
            wait_imbalance + base + others + init
        )
        return times
