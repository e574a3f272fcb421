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
whose closed form calls libm, equivalent to it at the 1e-12 tier.

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
    #: Pairs within the caller's ``count_cutoff`` (``None`` if not asked).
    within: int | None


class DirectedRows(NamedTuple):
    """What :func:`repro.md.neighbor.subdomain_directed_pairs` (and the
    :meth:`KernelBackend.directed_rows` hook behind it) returns."""

    #: Directed pairs sorted by ``(i, sort_key[j])``.
    i: np.ndarray
    j: np.ndarray
    #: Per head atom ``a`` (length: the anchor count), how many of its
    #: rows lie within the caller's ``count_cutoff``; ``None`` if not
    #: asked or not counted (the numpy build does not count).
    within: np.ndarray | None


@dataclass(frozen=True, eq=False)
class PairStyle:
    """Closed form of a potential, for fused kernels.

    What a potential's ``fused_style()`` hands to
    :meth:`KernelBackend.pair_forces`: enough for a backend to evaluate
    the potential itself instead of running its numpy body.
    """

    #: LAMMPS-style name selecting the functional form (``"lj/cut"``,
    #: ``"tersoff"``).
    kind: str
    cutoff: float
    #: Per-``kind`` coefficient arrays, float64 and C-contiguous; their
    #: shapes belong to the kind.  ``lj/cut`` carries three
    #: ``(n_types, n_types)`` tables ``(epsilon, sigma, energy shift)``,
    #: a one-type table meaning "ignore atom types"; ``tersoff`` carries
    #: one vector, the :class:`~repro.md.potentials.tersoff.
    #: TersoffParameters` fields in declaration order.
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

    def set_policy(self, policy: PrecisionPolicy) -> None:
        """Install the precision policy (may invalidate scratch)."""
        self.policy = policy

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

        * arithmetic only (``lj/cut``): *bitwise* what the body produces
          on this backend, so that taking the hook is invisible to the
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

    def neighbor_pairs(
        self,
        positions: np.ndarray,
        box,
        rc: float,
        count_cutoff: float | None = None,
    ) -> "SortedHalfPairs | None":
        """Optional native half-pair build for the Neigh task.

        A backend that can bin-and-filter faster than the numpy
        cell-list build returns the half pairs here, **already in
        row-major order** — exactly ``np.lexsort((j, i))`` applied to
        :func:`repro.md.neighbor.cell_list_half_pairs` (same pair set,
        same orientations, same order) — together with the CSR row
        offsets and, when ``count_cutoff`` is given, the number of
        those pairs with ``r2 < count_cutoff**2`` (the neighbor list's
        Table-2 statistic), so the caller neither sorts nor sweeps the
        geometry again.  Returning ``None`` (the default) keeps the
        caller on the numpy path, which is also the escape hatch for
        inputs a backend does not cover (e.g. float32 positions under
        the SINGLE policy).
        """
        return None

    def directed_rows(
        self,
        positions: np.ndarray,
        box,
        rc: float,
        sort_key: np.ndarray | None = None,
        anchor_limit: int | None = None,
        count_cutoff: float | None = None,
    ) -> "DirectedRows | None":
        """Optional native directed-row build for an engine worker.

        ``positions`` is a subdomain's local atom set (owned atoms, then
        ghost images) in the open ``box`` around it.  A backend that can
        emit the directed rows straight from the cell traversal returns
        them here **bitwise as** :func:`repro.md.neighbor.
        subdomain_directed_pairs` builds them from the half list — every
        pair within ``rc`` in both directions, rows headed by atoms
        ``[0, anchor_limit)`` only (all atoms when ``None``), sorted by
        ``(i, sort_key[j])`` (``sort_key=None`` sorts by ``j``) — plus,
        when ``count_cutoff`` is given, how many of each head's rows
        have ``r2 < count_cutoff**2``.  Returning ``None`` (the default, and
        the answer for float32 positions, periodic boxes and rows with
        tied sort keys) keeps the caller on the numpy mirror-and-lexsort
        path.
        """
        return None

    def count_pairs_within(
        self,
        positions: np.ndarray,
        box,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        rc: float,
    ) -> int | None:
        """Optional native count of stored pairs within ``rc``.

        Used by the neighbor list's per-build statistics (the Table-2
        neighbors-per-atom figure) on builds whose producer did not
        count — brute-force lists, exclusion-filtered lists — which
        otherwise re-derive the full minimum-image geometry in numpy
        just to count.  The count must be identical to ``r2 < rc*rc``
        over the numpy geometry (the compiled provider reuses its
        bitwise ``pair_geom`` kernel).  ``None`` (the default) keeps
        the caller on the numpy path.
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
