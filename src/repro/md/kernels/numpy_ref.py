"""Reference numpy kernel backend (the correctness oracle).

This backend reproduces the engine's original force-kernel behavior
verbatim: pair geometry through
:meth:`repro.md.neighbor.NeighborList.current_pairs` and scatter
accumulation through ``np.add.at`` / ``np.subtract.at``.  It is kept
unoptimized on purpose — the ``numpy_fast`` backend is tested against it
pair-for-pair.
"""

from __future__ import annotations

import numpy as np

from repro.md.kernels.base import KernelBackend

__all__ = ["NumpyRefBackend"]


class NumpyRefBackend(KernelBackend):
    """Unordered-scatter backend built on ``np.ufunc.at``.

    The reference backend ignores the installed precision policy and
    always evaluates in float64 — it *is* the oracle the reduced-
    precision modes are measured against.  When the simulation stores
    float32 state the geometry is upcast before any arithmetic.
    """

    name = "numpy_ref"

    def set_policy(self, policy) -> None:
        # Deliberately ignored: the oracle evaluates float64 in every
        # precision mode, so `self.policy` stays DOUBLE_POLICY.
        pass

    def current_pairs(self, system, neighbors, cutoff=None):
        i, j, dr, r = neighbors.current_pairs(system, cutoff)
        if dr.dtype != np.float64:
            dr = dr.astype(np.float64)
            r = r.astype(np.float64)
        return i, j, dr, r

    def scatter_add(self, out, index, values):
        np.add.at(out, index, values)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        np.add.at(forces, i, fvec)
        np.subtract.at(forces, j, fvec)
