"""Kernel-backend interface for the force-evaluation hot loop.

The paper's characterization (Table 1, Figure 3) shows the Pair and
Neigh tasks dominating MD wall-clock on every commodity platform, so
this engine isolates exactly the three primitives those tasks spend
their time in behind a small strategy interface:

* gathering fresh pair geometry from the stored neighbor list
  (:meth:`KernelBackend.current_pairs`),
* scattering per-pair vectors back onto per-atom arrays
  (:meth:`KernelBackend.accumulate_pair_forces`), and
* scattering arbitrary per-pair scalars/vectors (EAM electron
  densities, granular contact torques — :meth:`KernelBackend.scatter_add`).

A backend may additionally offer a *fused* pass
(:meth:`KernelBackend.pair_forces`) that does all of the above for one
pair style and row kind in a single sweep; it is optional, declines
with ``None``, and must be bitwise the unfused result — or, for a style
whose closed form calls libm, equivalent to it at the 1e-12 tier.  The
same shape serves the one non-pair hot loop, PPPM's particle-mesh
pass (:meth:`KernelBackend.pppm_spread` / :meth:`KernelBackend.pppm_gather`):
optional, declining with ``None``, bitwise the solver's numpy body.

Backends must be bit-compatible in *math* (same formulas, same pair
set) but are free to reorder summations and reuse scratch storage; the
backend-equivalence tests pin the reference and optimized backends
together to 1e-12 on forces, energy and virial for every pair style.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.md.precision import DOUBLE_POLICY, PrecisionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.md.atoms import AtomSystem
    from repro.md.neighbor import NeighborList
    from repro.md.potentials.base import PairRows

__all__ = ["DirectedRows", "KernelBackend", "PairStyle", "SortedHalfPairs"]


class SortedHalfPairs(NamedTuple):
    """What :meth:`KernelBackend.neighbor_pairs` hands the neighbor list."""

    #: Half pairs in row-major order: ``i`` non-decreasing, ``j``
    #: ascending within each ``i``.
    i: np.ndarray
    j: np.ndarray
    #: CSR row offsets (length ``n_atoms + 1``): atom ``a`` heads
    #: ``j[offsets[a]:offsets[a + 1]]``.
    offsets: np.ndarray


class DirectedRows(NamedTuple):
    """What :func:`repro.md.neighbor.subdomain_directed_pairs` (and the
    :meth:`KernelBackend.directed_rows` hook behind it) returns."""

    #: Directed pairs sorted by ``(i, sort_key[j])``.
    i: np.ndarray
    j: np.ndarray


@dataclass(frozen=True, eq=False)
class PairStyle:
    """Closed form of a potential, for fused kernels.

    What a potential's ``fused_style()`` hands to
    :meth:`KernelBackend.pair_forces`: enough for a backend to evaluate
    the potential itself instead of running its numpy body.
    """

    #: LAMMPS-style name selecting the functional form (``"lj/cut"``,
    #: ``"eam/alloy"``, ``"tersoff"``).
    kind: str
    cutoff: float
    #: Per-``kind`` coefficient arrays, float64 and C-contiguous; their
    #: shapes belong to the kind.  ``lj/cut`` carries three
    #: ``(n_types, n_types)`` tables ``(epsilon, sigma, energy shift)``,
    #: a one-type table meaning "ignore atom types"; ``eam/alloy`` and
    #: ``tersoff`` carry one vector, the fields of
    #: :class:`~repro.md.potentials.eam.EAMParameters` /
    #: :class:`~repro.md.potentials.tersoff.TersoffParameters` in
    #: declaration order.
    coeffs: tuple[np.ndarray, ...]


class KernelBackend(abc.ABC):
    """Strategy object providing the Pair-task inner-loop primitives."""

    #: Registry key (``numpy_ref``, ``numpy_fast``, ...).
    name: str = "abstract"

    #: Precision policy the backend evaluates under, installed through
    #: :meth:`set_policy` by the simulation (or a parallel worker).
    #: Backends are free to ignore it — ``numpy_ref`` does, staying a
    #: pure float64 oracle in every mode.
    policy: PrecisionPolicy = DOUBLE_POLICY

    #: Native provider kind the kernels run on (``"cc"`` on
    #: ``compiled``), ``None`` for the numpy backends.
    provider: str | None = None

    #: The request :func:`repro.md.kernels.get_backend` answered with
    #: this instance (``None`` read as ``numpy_fast``); ``None`` on an
    #: instance built directly.
    requested: str | None = None

    #: Why the requested backend could not be built and this
    #: ``numpy_fast`` runs instead; ``None`` when nothing fell back.
    fallback: str | None = None

    def set_policy(self, policy: PrecisionPolicy) -> None:
        """Install the precision policy (may invalidate scratch)."""
        self.policy = policy

    @property
    def scratch_pairs(self) -> int:
        """Rows of the largest per-pair scratch this backend has grown
        (the ``md_kernel_scratch_capacity_pairs`` gauge); 0 if none."""
        return 0

    @abc.abstractmethod
    def current_pairs(
        self,
        system: "AtomSystem",
        neighbors: "NeighborList",
        cutoff: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pairs currently within ``cutoff`` with fresh geometry.

        Returns ``(i, j, dr, r)`` exactly like
        :meth:`repro.md.neighbor.NeighborList.current_pairs`.
        """

    @abc.abstractmethod
    def scatter_add(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray
    ) -> None:
        """``out[index[k]] += values[k]`` for 1-D or ``(M, 3)`` values."""

    def scatter_add_sorted(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray
    ) -> None:
        """:meth:`scatter_add` for a *non-decreasing* ``index``.

        The parallel engine's directed rows are stored sorted by owning
        atom, which lets a backend collapse the scatter into a segmented
        reduction over contiguous runs.  The summation order within each
        segment must stay input order (bitwise-compatible with the
        generic scatter); this default just delegates.
        """
        self.scatter_add(out, index, values)

    @abc.abstractmethod
    def accumulate_pair_forces(
        self,
        forces: np.ndarray,
        i: np.ndarray,
        j: np.ndarray,
        fvec: np.ndarray,
    ) -> None:
        """Scatter ``+fvec`` onto rows ``i`` and ``-fvec`` onto rows ``j``."""

    def accumulate_scaled_pair_forces(
        self,
        forces: np.ndarray,
        i: np.ndarray,
        j: np.ndarray,
        dr: np.ndarray,
        f_over_r: np.ndarray,
    ) -> None:
        """Scatter ``f_over_r[k] * dr[k]`` onto ``i``/``j`` rows.

        This is the analytic-potential hot path (``f_vec = f_over_r *
        dr``); keeping it a distinct primitive lets a backend fuse the
        scaling into the scatter instead of materializing the ``(M, 3)``
        force-vector array.
        """
        self.accumulate_pair_forces(forces, i, j, f_over_r[:, None] * dr)

    def pair_forces(self, style: PairStyle, rows: "PairRows") -> int | None:
        """Optional fused evaluation of a pair style over a row view.

        One pass that does the work of the potential's body —
        ``rows.within``, the per-pair terms, the scatters and the
        energy/virial accumulation — into the same places the body's
        verbs write (``rows.system.forces`` and the ``energy``/``virial``
        totals of a stored list; the per-owned-atom ``rows.out`` slots
        of an engine worker, head side only, pair after pair in row
        order), returning the interactions evaluated.  A backend
        dispatches on ``(style.kind, rows.kind)``; ``None`` (the
        default, and the answer for any style, row kind, precision
        policy or memory layout a backend does not cover) runs the body
        instead, and nothing may have been written in that case.

        How close the result must be depends on the style's closed form:

        * arithmetic only (``lj/cut``), or arithmetic around numpy's own
          ``exp`` (``eam/alloy``): *bitwise* what the body produces on
          this backend, so that taking the hook is invisible to the
          digest chain;
        * calling libm (``tersoff``: ``exp``, ``pow``), which numpy's
          own SIMD loops do not round identically: *equivalent* —
          forces, energy and virial within 1e-12, trajectories within
          ``PARITY_TOLERANCES["double"]``, reruns bitwise — and the
          route taken must be a function of the configuration (style,
          row kind, policy, dtypes, layout), never of an array value,
          so one (spec, backend, precision) always yields one head.
        """
        return None

    def pppm_spread(
        self,
        mesh: np.ndarray,
        frac: np.ndarray,
        charges: np.ndarray,
        order: int,
    ) -> np.ndarray | None:
        """Optional native PPPM charge assignment (the paper's
        ``make_rho``).

        Adds each of ``charges`` at its ``(N, 3)`` grid coordinates
        ``frac`` onto ``mesh`` (the zeroed ``(nx, ny, nz)`` grid, in the
        accumulate dtype) with order-``order`` B-spline weights, and
        returns ``mesh``.  The result must be *bitwise* what
        :func:`repro.md.kspace.pppm.spread_charges` over
        :func:`~repro.md.kspace.pppm.mesh_stencil` writes, which pins
        the order of the additions: stencil point ``(a, b, c)``
        outermost, atoms in input order innermost — the order of that
        body's ``np.add.at`` calls.  ``None`` (the default, and the
        answer for any dtype pair, layout or order a backend does not
        cover) runs the body instead, and nothing may have been written
        in that case.
        """
        return None

    def pppm_gather(
        self,
        efield: np.ndarray,
        frac: np.ndarray,
        fields: list[np.ndarray],
        order: int,
    ) -> np.ndarray | None:
        """Optional native PPPM field interpolation (the paper's
        ``interp``).

        Writes into the ``(N, 3)`` ``efield`` the three mesh ``fields``
        interpolated to the grid coordinates ``frac`` and returns it:
        *bitwise* :func:`repro.md.kspace.pppm.interpolate_fields` into a
        zeroed array — per atom, each component summed from 0.0 in
        stencil order.  Declines with ``None`` as :meth:`pppm_spread`
        does.
        """
        return None

    def neighbor_pairs(
        self, positions: np.ndarray, box, rc: float
    ) -> "SortedHalfPairs | None":
        """Optional native half-pair build for the Neigh task.

        A backend that can bin-and-filter faster than the numpy
        cell-list build returns the half pairs here, **already in
        row-major order** — exactly ``np.lexsort((j, i))`` applied to
        :func:`repro.md.neighbor.cell_list_half_pairs` (same pair set,
        same orientations, same order) — together with the CSR row
        offsets, so the caller does not sort.  Returning ``None`` (the
        default) keeps the caller on the numpy path, which is also the
        escape hatch for inputs a backend does not cover (e.g. float32
        positions under the SINGLE policy).
        """
        return None

    def directed_rows(
        self,
        positions: np.ndarray,
        box,
        rc: float,
        sort_key: np.ndarray | None = None,
        anchor_limit: int | None = None,
    ) -> "DirectedRows | None":
        """Optional native directed-row build for an engine worker.

        ``positions`` is a subdomain's local atom set (owned atoms, then
        ghost images) in the open ``box`` around it.  A backend that can
        emit the directed rows straight from the cell traversal returns
        them here **bitwise as** :func:`repro.md.neighbor.
        subdomain_directed_pairs` builds them from the half list — every
        pair within ``rc`` in both directions, rows headed by atoms
        ``[0, anchor_limit)`` only (all atoms when ``None``), sorted by
        ``(i, sort_key[j])`` (``sort_key=None`` sorts by ``j``).
        Returning ``None`` (the default, and the answer for float32
        positions, periodic boxes and rows with tied sort keys) keeps the
        caller on the numpy mirror-and-lexsort path.
        """
        return None

    def max_displacement_sq(
        self, positions: np.ndarray, reference: np.ndarray, box
    ) -> float | None:
        """Optional native maximum of the neighbor list's skin check.

        Must equal ``np.max`` of the squared minimum-image displacement
        ``box.wrap(positions) - reference`` bitwise (NaN included), so
        the rebuild decision — and with it every downstream digest —
        does not depend on who computed it.  ``None`` (the default)
        keeps the caller on the numpy expression.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
