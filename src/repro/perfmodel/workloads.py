"""Per-benchmark workload parameters feeding the performance model.

Each :class:`WorkloadParams` captures what one timestep of a benchmark
*does* at production scale.  Its Table-2 facts — cutoff, skin,
neighbors per atom, Newton's third law, the k-space solver and its
baseline error threshold, the physical timestep, GPU-package support —
are read from the benchmark's :mod:`repro.suite` definition, the one
place they are stated.  The literal :data:`workloads` table adds only
what the model alone needs: number density, per-pair arithmetic cost,
bonded topology size, fix weight, the rebuild cadence implied by the
skin, imbalance and utilization, and the box geometry for a given atom
count.  Those are closed-form so the model can evaluate
2-million-atom configurations instantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.suite import get_benchmark

__all__ = [
    "WorkloadParams",
    "workloads",
    "get_workload",
    "SIZES_K",
    "RANK_COUNTS",
    "GPU_COUNTS",
]

#: The paper's four experiment sizes, in thousands of atoms (Section 5).
SIZES_K: tuple[int, ...] = (32, 256, 864, 2048)

#: MPI-rank sweep of the CPU characterization (Figures 3-6).
RANK_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: GPU-device sweep of the GPU characterization (Figures 7-9).
GPU_COUNTS: tuple[int, ...] = (1, 2, 4, 6, 8)


@dataclass(frozen=True)
class WorkloadParams:
    """Production-scale workload description of one suite benchmark."""

    name: str
    # -- Table-2 facts, copied from the suite definition (``_from_suite``).
    #: Average neighbors within the force cutoff.
    neighbors_per_atom: float
    cutoff: float
    skin: float
    #: Newton's 3rd law halves stored/computed pairs (False for Chute).
    newton: bool
    #: Long-range solver active (Rhodopsin only).
    has_kspace: bool
    #: Baseline k-space error threshold (``None`` without a solver).
    kspace_error: float | None
    #: Physical timestep for ns/day conversion.
    timestep_fs: float
    #: Reference GPU package supports this pair style.
    gpu_supported: bool
    # -- Model-only parameters.
    #: Atoms per cubic length-unit of the deck (sigma^-3 or Angstrom^-3).
    number_density: float
    #: Relative per-pair arithmetic cost vs plain LJ (force-field math).
    pair_cost_factor: float
    #: Bonded elements per atom (bonds + angles).
    bonds_per_atom: float = 0.0
    angles_per_atom: float = 0.0
    #: Relative per-atom cost of fixes/integration ("Modify" task).
    modify_weight: float = 1.0
    #: Timesteps between neighbor rebuilds (skin-dependent).
    rebuild_every: float = 10.0
    #: Per-rank compute-time jitter amplitude (drives MPI imbalance).
    imbalance_amplitude: float = 0.01
    #: Mean squared charge per atom (for the k-space error model), in
    #: the deck's charge units (Coulomb constant folded in).
    qsq_per_atom: float = 0.0
    #: Chute's bed is a thin slab: decompose in x/y only.
    quasi_2d: bool = False
    #: Slab height (length units) when quasi_2d.
    slab_height: float = 16.0
    #: Average physical-core utilization the paper profiled (Section 5.2).
    core_utilization: float = 0.5
    #: Forward-comm payload per ghost atom.  Point particles ship three
    #: coordinates (24 B); granular particles also need velocities and
    #: angular velocities every step for the damped contact forces.
    comm_bytes_per_atom: float = 24.0

    def __post_init__(self) -> None:
        if self.has_kspace and self.kspace_error is None:
            raise ValueError(f"{self.name}: a k-space workload needs a kspace_error")

    # ------------------------------------------------------------------
    def box_lengths(self, n_atoms: int) -> np.ndarray:
        """Deck box dimensions for ``n_atoms`` at the deck density."""
        if n_atoms < 1:
            raise ValueError("n_atoms must be positive")
        volume = n_atoms / self.number_density
        if self.quasi_2d:
            area = volume / self.slab_height
            side = math.sqrt(area)
            return np.array([side, side, self.slab_height])
        side = volume ** (1.0 / 3.0)
        return np.array([side, side, side])

    @property
    def list_neighbors_per_atom(self) -> float:
        """Average stored neighbors (inside cutoff + skin)."""
        scale = ((self.cutoff + self.skin) / self.cutoff) ** 3
        return self.neighbors_per_atom * scale

    def pair_interactions_per_atom(self) -> float:
        """Computed pair interactions per atom per step."""
        factor = 0.5 if self.newton else 1.0
        return self.neighbors_per_atom * factor

    def memory_bytes(self, n_atoms: int) -> float:
        """Rough resident-set estimate: per-atom state + neighbor list.

        Matches the paper's observation that even the biggest experiment
        needs only ~2.9 GB (Section 4.1).
        """
        per_atom_state = 180.0  # x, v, f, type, image, molecule, ...
        neighbor_entry = 4.0  # int32 neighbor indices
        half = 0.5 if self.newton else 1.0
        # Average list occupancy between rebuilds sits midway between the
        # cutoff sphere and the cutoff+skin sphere.
        occupancy = ((self.cutoff + 0.5 * self.skin) / self.cutoff) ** 3
        stored = self.neighbors_per_atom * occupancy * half
        return n_atoms * (per_atom_state + neighbor_entry * stored)


def _from_suite(name: str, **model_params: float | bool) -> WorkloadParams:
    """``name``'s workload: Table-2 facts from the suite + ``model_params``."""
    definition = get_benchmark(name)
    taxonomy = definition.taxonomy
    return WorkloadParams(
        name=name,
        neighbors_per_atom=float(taxonomy.neighbors_per_atom),
        cutoff=float(taxonomy.cutoff),
        skin=float(taxonomy.neighbor_skin),
        newton=definition.newton,
        has_kspace=taxonomy.computes_long_range,
        kspace_error=taxonomy.kspace_error,
        timestep_fs=float(definition.timestep_fs),
        gpu_supported=definition.gpu_supported,
        **model_params,
    )


workloads: dict[str, WorkloadParams] = {
    "lj": _from_suite(
        "lj",
        number_density=0.8442,
        pair_cost_factor=1.0,
        modify_weight=1.0,
        rebuild_every=10.0,
        imbalance_amplitude=0.012,
        core_utilization=0.48,
    ),
    "chain": _from_suite(
        "chain",
        number_density=0.8442,
        # Short lists amortize badly: more per-pair loop overhead.
        pair_cost_factor=1.45,
        bonds_per_atom=0.99,
        modify_weight=2.0,  # Langevin: RNG + drag per atom
        rebuild_every=12.0,
        imbalance_amplitude=0.08,
        core_utilization=0.56,
    ),
    "eam": _from_suite(
        "eam",
        number_density=4.0 / 3.615**3,  # fcc copper
        # Two-pass evaluation plus embedding-function interpolation.
        pair_cost_factor=1.45,
        modify_weight=1.0,
        rebuild_every=30.0,  # a solid: atoms barely move
        imbalance_amplitude=0.008,
        core_utilization=0.63,
    ),
    "chute": _from_suite(
        "chute",
        number_density=1.03,  # settled granular packing
        # Hookean springs are cheap but history management adds state.
        pair_cost_factor=0.9,
        modify_weight=1.4,  # gravity + wall + angular integration
        rebuild_every=15.0,
        # Flowing granular beds develop density gradients: the paper
        # measures the worst parallel efficiency (48%) and core
        # utilization (24%) for Chute.
        imbalance_amplitude=0.22,
        quasi_2d=True,
        core_utilization=0.24,
        comm_bytes_per_atom=80.0,  # x + v + omega + radius per ghost
    ),
    "rhodo": _from_suite(
        "rhodo",
        number_density=0.1,  # solvated all-atom system, atoms/A^3
        # erfc is table-interpolated and the ~440-entry lists amortize
        # loop overheads: per-pair cost lands *below* sparse-list LJ.
        pair_cost_factor=0.77,
        bonds_per_atom=1.0,
        angles_per_atom=0.5,
        modify_weight=8.0,  # NPT chains + SHAKE iterations
        rebuild_every=10.0,
        imbalance_amplitude=0.15,
        # <q^2> with the Coulomb constant folded in (SPC/E-like charges).
        qsq_per_atom=119.0,
        core_utilization=0.83,
    ),
}


def get_workload(name: str | WorkloadParams) -> WorkloadParams:
    """Look up workload parameters by benchmark name.

    A :class:`WorkloadParams` passes through unchanged, so every modeled
    executor takes either a suite name or the (possibly edited)
    workload itself.
    """
    if isinstance(name, WorkloadParams):
        return name
    try:
        return workloads[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {tuple(workloads)}"
        ) from None
