"""Optimized numpy kernel backend: bincount scatter + scratch reuse.

Three things make this backend faster than the reference on the Pair
task without changing any physics:

* **Segmented accumulation.**  ``np.add.at`` resolves index collisions
  element by element and is notoriously slow; ``np.bincount`` performs
  the same scatter-add as a single C pass over the pair list.  Because
  the neighbor list stores its pairs in CSR order (sorted by ``i``),
  the ``i``-side bincount also walks the output array monotonically.
* **Preallocated scratch.**  The per-step ``dr`` / ``r2`` intermediates
  are the largest allocations in the hot loop (``~pairs x 3`` doubles
  each step).  They are kept in grow-only scratch buffers reused across
  steps, so steady-state force evaluation allocates only the compressed
  output arrays.
* **Fused cutoff masking.**  Geometry, the squared-distance reduction
  and the cutoff test run over the stored list once, then a single
  ``flatnonzero`` compress produces the surviving pairs.

The arithmetic (minimum image, distance, cutoff compare) is expressed
with the exact same operations as the reference backend, so the pair
set and per-pair values match bitwise; only summation *order* inside
the scatter differs, which the oracle tests bound at 1e-12.
"""

from __future__ import annotations

import numpy as np

from repro.md.kernels.base import KernelBackend
from repro.md.precision import PrecisionPolicy

__all__ = ["NumpyFastBackend", "min_image_geometry"]


def min_image_geometry(positions, index_i, index_j, lengths, periodic, scratch):
    """Fill ``scratch = (dr, tmp, r2)`` with ``dr = x_i - x_j`` under the
    minimum image and its squared norm, in ``positions``' dtype; returns
    ``(dr, r2)``.

    The one numpy geometry pass: the stored list's here and an engine
    worker's directed rows both run it, so their displacements are
    bitwise equal.
    """
    dr, tmp, r2 = scratch
    # Gathered without temporary index arrays.  mode="clip" skips
    # np.take's bounds-check buffering; indices come straight from the
    # build and are always in range.
    np.take(positions, index_i, axis=0, out=dr, mode="clip")
    np.take(positions, index_j, axis=0, out=tmp, mode="clip")
    np.subtract(dr, tmp, out=dr)
    # In-place minimum image: same operation sequence as
    # Box.minimum_image (round-half-even), so results match bitwise.
    np.divide(dr, lengths, out=tmp)
    np.rint(tmp, out=tmp)
    if not periodic.all():
        tmp[:, ~periodic] = 0.0
    np.multiply(tmp, lengths, out=tmp)
    np.subtract(dr, tmp, out=dr)
    np.einsum("ij,ij->i", dr, dr, out=r2)
    return dr, r2


class NumpyFastBackend(KernelBackend):
    """CSR-aware backend using ``np.bincount`` segmented reduction.

    Honors the installed :class:`~repro.md.precision.PrecisionPolicy`:
    pair geometry (minimum image, distances, cutoff compare) runs in
    the storage dtype, per-pair terms are handed out in the compute
    dtype, and accumulation follows the accumulate dtype — under MIXED
    the float32 per-pair weights land in the float64 force array
    through ``np.bincount``, whose internal accumulator is always
    float64.
    """

    name = "numpy_fast"

    def __init__(self) -> None:
        self._capacity = 0
        self._dr = np.empty((0, 3))
        self._tmp = np.empty((0, 3))
        self._r2 = np.empty(0)

    def set_policy(self, policy: PrecisionPolicy) -> None:
        if policy.storage_dtype != self.policy.storage_dtype:
            # Scratch is typed per geometry (storage) dtype; drop it.
            self._capacity = 0
        self.policy = policy

    # ------------------------------------------------------------------
    def _scratch(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grow-only scratch views of length ``m`` (amortized O(1))."""
        if m > self._capacity:
            capacity = max(m, int(1.5 * self._capacity), 1024)
            dtype = self.policy.storage_dtype
            self._dr = np.empty((capacity, 3), dtype=dtype)
            self._tmp = np.empty((capacity, 3), dtype=dtype)
            self._r2 = np.empty(capacity, dtype=dtype)
            self._capacity = capacity
        return self._dr[:m], self._tmp[:m], self._r2[:m]

    # ------------------------------------------------------------------
    def current_pairs(self, system, neighbors, cutoff=None):
        if neighbors._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        rc = neighbors.cutoff if cutoff is None else float(cutoff)
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        compute_dtype = self.policy.compute_dtype
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty((0, 3), dtype=compute_dtype), np.empty(
                0, dtype=compute_dtype
            )

        # Geometry — the minimum image, squared distance and cutoff
        # compare — runs in the *storage* dtype: under MIXED the pair
        # set is decided in float64 and therefore matches the float64
        # oracle exactly (no cutoff-boundary flips); only the surviving
        # per-pair dr/r are rounded to the compute dtype for the
        # potential math.  SINGLE stores float32, so its whole hot loop
        # (gather included) runs at half the memory traffic.
        geometry_dtype = self.policy.storage_dtype
        positions = system.positions.astype(geometry_dtype, copy=False)
        box = system.box
        lengths = box.lengths.astype(geometry_dtype, copy=False)
        dr, r2 = min_image_geometry(
            positions, pair_i, pair_j, lengths, box.periodic, self._scratch(m)
        )
        keep = np.flatnonzero(r2 < rc * rc)
        # The compressed outputs are fresh arrays: the scratch above is
        # reused on the next call and must not leak out.
        dr_out = dr[keep]
        r_out = np.sqrt(r2[keep])
        if geometry_dtype != compute_dtype:
            dr_out = dr_out.astype(compute_dtype)
            r_out = r_out.astype(compute_dtype)
        return pair_i[keep], pair_j[keep], dr_out, r_out

    # ------------------------------------------------------------------
    def scatter_add(self, out, index, values):
        values = np.asarray(values)
        n = out.shape[0]
        if values.ndim == 1:
            out += np.bincount(index, weights=values, minlength=n)
        else:
            for d in range(values.shape[1]):
                out[:, d] += np.bincount(index, weights=values[:, d], minlength=n)

    def scatter_add_sorted(self, out, index, values):
        m = len(index)
        if m == 0:
            return
        values = np.asarray(values)
        if values.dtype != out.dtype:
            # reduceat accumulates in the *values* dtype; under MIXED
            # (f32 values, f64 output) that would defeat the float64
            # accumulation guarantee — bincount accumulates f64 always.
            self.scatter_add(out, index, values)
            return
        # Segment boundaries of the contiguous index runs; reduceat sums
        # each run sequentially (input order), matching bincount bitwise.
        boundaries = np.flatnonzero(index[1:] != index[:-1]) + 1
        starts = np.concatenate([[0], boundaries]).astype(np.intp)
        rows = index[starts]
        if values.ndim == 1:
            out[rows] += np.add.reduceat(values, starts)
        else:
            for d in range(values.shape[1]):
                out[rows, d] += np.add.reduceat(values[:, d], starts)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        n = forces.shape[0]
        for d in range(3):
            w = fvec[:, d]
            forces[:, d] += np.bincount(i, weights=w, minlength=n)
            forces[:, d] -= np.bincount(j, weights=w, minlength=n)

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        m = len(i)
        if m == 0:
            return
        n = forces.shape[0]
        w = self._scratch(m)[2]
        if w.dtype != f_over_r.dtype:
            # A caller handing f64 per-pair terms to an f32-compute
            # backend (or vice versa): do the multiply out of scratch.
            w = np.empty(m, dtype=np.result_type(f_over_r, dr))
        if w.dtype == forces.dtype and not (i[1:] < i[:-1]).any():
            # CSR order (i non-decreasing, the list's native layout): the
            # i-side scatter collapses to a segmented reduction over
            # contiguous runs, cheaper than a second bincount.
            boundaries = np.flatnonzero(i[1:] != i[:-1]) + 1
            starts = np.concatenate([[0], boundaries]).astype(np.intp)
            rows = i[starts]
            for d in range(3):
                np.multiply(f_over_r, dr[:, d], out=w)
                forces[rows, d] += np.add.reduceat(w, starts)
                forces[:, d] -= np.bincount(j, weights=w, minlength=n)
        else:
            for d in range(3):
                np.multiply(f_over_r, dr[:, d], out=w)
                forces[:, d] += np.bincount(i, weights=w, minlength=n)
                forces[:, d] -= np.bincount(j, weights=w, minlength=n)
