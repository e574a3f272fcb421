"""Per-task compute-cost laws for one CPU core.

Costs follow the paper's own complexity analysis (Section 2.1):

* Pair   — O(N * npa_avg), scaled by force-field arithmetic cost and
  halved under Newton's third law;
* Neigh  — an O(N * list_size) rebuild amortized over the skin-dependent
  rebuild cadence, plus a per-step displacement check;
* Bond   — O(bonded elements);
* Kspace — B-spline assignment/interpolation O(N * order^3) plus four
  3-D FFTs at O(G log G), with the grid G chosen by the LAMMPS error
  machinery from the threshold (Section 7's knob);
* Modify — O(N) weighted by the benchmark's fix stack;
* Output/Other — small O(N) bookkeeping plus a fixed per-step overhead.

Coefficients are for one Xeon 8358 core at turbo and were calibrated so
the full campaign reproduces the paper's anchor numbers (see
``repro.model.calibration`` and ``tests/test_model_anchors.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.md.kspace.error import select_grid
from repro.md.precision import parse_precision
from repro.model.precision import Precision, precision_pair_factor
from repro.model.workloads import WorkloadParams

__all__ = ["CpuCostCoefficients", "ComputeTimes", "CpuCostModel", "kspace_grid"]

#: LAMMPS' reference force for relative accuracy: two unit charges at
#: unit distance with the Coulomb constant folded in (real units).
TWO_CHARGE_FORCE = 332.06


@dataclass(frozen=True)
class CpuCostCoefficients:
    """Seconds-per-operation constants for one CPU core (mixed precision)."""

    pair_per_interaction: float = 8.0e-9
    neigh_build_per_pair: float = 2.2e-9
    neigh_check_per_atom: float = 1.5e-9
    bond_per_element: float = 2.8e-8
    modify_per_atom: float = 1.2e-8
    output_per_atom: float = 1.0e-10
    other_per_atom: float = 4.0e-9
    step_overhead: float = 3.0e-6
    #: Spread + interpolate per atom (assignment order^5 stencil folded).
    kspace_assign_per_atom: float = 5.0e-7
    #: Per grid point per log2(G), for the 4 FFTs of one ik-differentiated
    #: PPPM solve (single-precision MKL, -DFFT_SINGLE).
    fft_per_point_log: float = 7.2e-10
    #: Parallel FFT speedup exponent: the distributed transposes make the
    #: long-range solve scale as P^0.85 rather than P (the paper's
    #: Section 7: "the long-range portion of the timestep exhibits worse
    #: strong scaling properties, most likely due to the global
    #: communication steps required by the 3D FFT").
    fft_parallel_exponent: float = 0.83
    #: Uniform slowdown of every task (used for the weaker GPU-instance
    #: host CPU: lower frequency, older core).
    core_slowdown: float = 1.0

    def slowed(self, factor: float) -> "CpuCostCoefficients":
        """A copy with every per-operation cost scaled by ``factor``."""
        return replace(self, core_slowdown=self.core_slowdown * factor)


@dataclass(frozen=True)
class ComputeTimes:
    """Per-rank, per-timestep compute seconds by Table 1 task (no comm)."""

    pair: float
    neigh: float
    bond: float
    kspace: float
    modify: float
    output: float
    other: float
    #: The FFT share of ``kspace`` — globally synchronized, so per-rank
    #: compute jitter does not apply to it (the executor uses the split).
    kspace_fft: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.pair
            + self.neigh
            + self.bond
            + self.kspace
            + self.modify
            + self.output
            + self.other
        )


_GRID_CACHE: dict[
    tuple[WorkloadParams, int, float], tuple[float, tuple[int, int, int]]
] = {}


def kspace_grid(
    workload: WorkloadParams, n_atoms: int, accuracy: float
) -> tuple[float, tuple[int, int, int]]:
    """PPPM ``(alpha, grid)`` for a production-size deck.

    Delegates to the same LAMMPS-style error machinery the functional
    PPPM solver uses, evaluated on the deck's box geometry.  Memoized on
    the frozen workload itself — an edited copy is a new entry — since
    the campaign re-evaluates the same (deck, size, threshold) points
    across many figures.
    """
    if not workload.has_kspace:
        raise ValueError(f"workload {workload.name!r} has no k-space solver")
    key = (workload, int(n_atoms), float(accuracy))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = select_grid(
            accuracy,
            workload.box_lengths(n_atoms),
            workload.cutoff,
            n_atoms,
            workload.qsq_per_atom * n_atoms,
            order=5,
            two_charge_force=TWO_CHARGE_FORCE,
        )
    return _GRID_CACHE[key]


class CpuCostModel:
    """Maps workload operation counts to per-core compute times."""

    def __init__(
        self,
        coefficients: CpuCostCoefficients | None = None,
        precision: Precision | str = Precision.MIXED,
    ) -> None:
        self.coefficients = (
            coefficients if coefficients is not None else CpuCostCoefficients()
        )
        self.precision = parse_precision(precision)

    # ------------------------------------------------------------------
    def compute_times(
        self,
        workload: WorkloadParams,
        n_local: float,
        n_ranks: int,
        *,
        kspace_error: float | None = None,
        n_atoms_total: int | None = None,
        thermo_every: int = 100,
    ) -> ComputeTimes:
        """Per-step compute seconds for a rank owning ``n_local`` atoms.

        ``n_atoms_total`` (defaults to ``n_local * n_ranks``) sets the
        global FFT grid; ``kspace_error`` overrides the workload's
        baseline threshold (the Section 7 sweep).
        """
        c = self.coefficients
        slow = c.core_slowdown
        if n_local <= 0:
            raise ValueError("n_local must be positive")
        n_total = (
            int(n_atoms_total)
            if n_atoms_total is not None
            else int(round(n_local * n_ranks))
        )

        pair_factor = precision_pair_factor(workload.name, self.precision)
        pair = (
            n_local
            * workload.pair_interactions_per_atom()
            * workload.pair_cost_factor
            * c.pair_per_interaction
            * pair_factor
            * slow
        )

        stored_pairs = n_local * workload.list_neighbors_per_atom * (
            0.5 if workload.newton else 1.0
        )
        neigh = (
            stored_pairs * c.neigh_build_per_pair / workload.rebuild_every
            + n_local * c.neigh_check_per_atom
        ) * slow

        elements = workload.bonds_per_atom + workload.angles_per_atom
        bond = n_local * elements * c.bond_per_element * slow

        kspace = 0.0
        kspace_fft = 0.0
        if workload.has_kspace:
            accuracy = kspace_error if kspace_error is not None else workload.kspace_error
            _, grid = kspace_grid(workload, n_total, accuracy)
            grid_points = float(np.prod(grid))
            kspace_fft = (
                grid_points
                * math.log2(max(grid_points, 2.0))
                * c.fft_per_point_log
                / n_ranks**c.fft_parallel_exponent
            ) * slow
            assign = n_local * c.kspace_assign_per_atom * slow
            kspace = kspace_fft + assign

        modify = n_local * workload.modify_weight * c.modify_per_atom * slow
        output = n_local * c.output_per_atom * slow / max(thermo_every, 1) * 100.0
        other = (n_local * c.other_per_atom + c.step_overhead) * slow

        return ComputeTimes(
            pair=pair,
            neigh=neigh,
            bond=bond,
            kspace=kspace,
            modify=modify,
            output=output,
            other=other,
            kspace_fft=kspace_fft,
        )
