"""CUDA kernel catalogue and per-kernel cost laws (Figure 8).

The paper's NSight profiles name the kernels we model:

* ``k_lj_fast`` — LJ pair kernel (LJ and Chain benchmarks);
* ``k_eam_fast`` / ``k_energy_fast`` — the EAM pair computation is split
  in two, whose combined runtime exceeds the Rhodopsin pair kernel
  (Section 6.1 flags this as an optimization opportunity);
* ``k_charmm_long`` — CHARMM + real-space Coulomb pair kernel (Rhodopsin);
* ``calc_neigh_list_cell`` — on-device neighbor-list build, which becomes
  the longest-running Rhodopsin kernel at 2048k atoms;
* ``make_rho`` / ``particle_map`` / ``interp`` — PPPM charge assignment,
  particle-to-grid mapping and field interpolation (the FFTs themselves
  run on the host in the reference package);
* ``kernel_special`` / ``kernel_zero`` / ``kernel_info`` / ``transpose``
  — small bookkeeping kernels;
* the ``[CUDA memcpy HtoD]`` / ``[CUDA memcpy DtoH]`` / ``[CUDA memset]``
  data-movement entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.precision import Precision, gpu_precision_pair_factor
from repro.model.workloads import WorkloadParams

__all__ = [
    "GpuKernelCoefficients",
    "KERNELS_BY_BENCHMARK",
    "DATA_MOVEMENT_ENTRIES",
    "pair_kernel_names",
    "kernel_seconds_per_step",
]

#: Compute kernels each benchmark launches (Figure 8's legend).
KERNELS_BY_BENCHMARK: dict[str, tuple[str, ...]] = {
    "lj": (
        "k_lj_fast",
        "calc_neigh_list_cell",
        "kernel_special",
        "kernel_zero",
        "kernel_info",
        "transpose",
    ),
    "chain": (
        "k_lj_fast",
        "calc_neigh_list_cell",
        "kernel_special",
        "kernel_zero",
        "kernel_info",
        "transpose",
    ),
    "eam": (
        "k_eam_fast",
        "k_energy_fast",
        "interp",
        "calc_neigh_list_cell",
        "kernel_special",
        "kernel_zero",
        "kernel_info",
        "transpose",
    ),
    "rhodo": (
        "k_charmm_long",
        "make_rho",
        "particle_map",
        "interp",
        "calc_neigh_list_cell",
        "kernel_special",
        "kernel_zero",
        "kernel_info",
        "transpose",
    ),
}

DATA_MOVEMENT_ENTRIES = (
    "[CUDA memcpy HtoD]",
    "[CUDA memcpy DtoH]",
    "[CUDA memset]",
)


@dataclass(frozen=True)
class GpuKernelCoefficients:
    """Per-operation device-time constants for one V100 (single precision).

    Calibrated against the paper's Section 6/8 anchors (see
    ``tests/test_model_anchors.py``).
    """

    #: Seconds per pair interaction in the pair kernel.
    pair_per_interaction: float = 1.1e-10
    #: EAM splits pair work into two kernels whose *combined* time beats
    #: k_charmm_long (Section 6.1) — extra factor on the eam pair work.
    eam_split_overhead: float = 1.6
    #: Seconds per stored list pair for the on-device neighbor build.
    neigh_per_list_pair: float = 1.15e-10
    #: Per-atom binning cost of the neighbor kernel — dominant for small
    #: cutoffs (Chain), where cells hold few atoms and occupancy is poor.
    neigh_per_atom: float = 2.0e-9
    #: Seconds per atom per PPPM grid kernel (order^3 stencil folded).
    kspace_grid_per_atom: float = 4.0e-8
    #: Seconds per atom for the small bookkeeping kernels, together.
    bookkeeping_per_atom: float = 6.0e-10
    #: Fixed launch latency per kernel invocation.
    launch_latency_s: float = 6.0e-6


def pair_kernel_names(benchmark: str) -> tuple[str, ...]:
    """The pair-force kernel(s) of a benchmark."""
    if benchmark in ("lj", "chain"):
        return ("k_lj_fast",)
    if benchmark == "eam":
        return ("k_eam_fast", "k_energy_fast")
    if benchmark == "rhodo":
        return ("k_charmm_long",)
    raise KeyError(f"benchmark {benchmark!r} has no GPU pair kernel")


def kernel_seconds_per_step(
    workload: WorkloadParams,
    n_atoms_device: float,
    precision: Precision | str,
    coefficients: GpuKernelCoefficients | None = None,
) -> dict[str, float]:
    """Device seconds per timestep, by kernel, for one device's atoms.

    Launch latencies are *not* included (the executor adds them per rank
    sharing the device); only the occupancy-limited compute time is.
    """
    c = coefficients if coefficients is not None else GpuKernelCoefficients()
    name = workload.name
    if name not in KERNELS_BY_BENCHMARK:
        raise KeyError(
            f"the reference GPU package does not support {name!r} "
            "(gran/hooke/history has no CUDA pair style, Section 6)"
        )
    precision_factor = gpu_precision_pair_factor(name, precision)
    times: dict[str, float] = {k: 0.0 for k in KERNELS_BY_BENCHMARK[name]}

    # Pair kernels: the GPU package always builds full lists on device,
    # so the pair work is N * nn (no Newton halving on the GPU).
    pair_work = n_atoms_device * workload.neighbors_per_atom
    pair_time = (
        pair_work * c.pair_per_interaction * workload.pair_cost_factor * precision_factor
    )
    kernels = pair_kernel_names(name)
    if name == "eam":
        pair_time *= c.eam_split_overhead
        times["k_eam_fast"] = 0.62 * pair_time
        times["k_energy_fast"] = 0.38 * pair_time
        times["interp"] = 0.2e-9 * n_atoms_device  # embedding interpolation
    else:
        times[kernels[0]] = pair_time

    # On-device neighbor build, amortized over the rebuild cadence.
    list_pairs = n_atoms_device * workload.list_neighbors_per_atom
    times["calc_neigh_list_cell"] = (
        list_pairs * c.neigh_per_list_pair + n_atoms_device * c.neigh_per_atom
    ) / workload.rebuild_every

    # PPPM grid kernels (Rhodopsin only).
    if workload.has_kspace:
        grid_kernel = n_atoms_device * c.kspace_grid_per_atom
        times["make_rho"] = 0.45 * grid_kernel
        times["particle_map"] = 0.15 * grid_kernel
        times["interp"] = times.get("interp", 0.0) + 0.40 * grid_kernel

    # Small bookkeeping kernels.
    book = n_atoms_device * c.bookkeeping_per_atom
    times["kernel_special"] = 0.4 * book
    times["kernel_zero"] = 0.3 * book
    times["kernel_info"] = 0.1 * book
    times["transpose"] = 0.2 * book
    return times
