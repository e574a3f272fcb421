"""Lennard-Jones pair potential with cutoff (``pair_style lj/cut``).

The paper's LJ benchmark is a 3-D Lennard-Jones melt at the standard
reduced density 0.8442 with ``cutoff = 2.5 sigma``; its Chain benchmark
reuses the same functional form at the purely repulsive WCA cutoff
``2^(1/6) sigma``.
"""

from __future__ import annotations

import numpy as np

from repro.md.kernels.base import PairStyle
from repro.md.potentials.base import AnalyticPairPotential
from repro.md.potentials.mixing import build_mixed_tables

__all__ = ["LennardJonesCut", "WCA_CUTOFF"]

#: The Weeks-Chandler-Andersen cutoff ``2^(1/6)`` at which the LJ force
#: vanishes — Table 2's ``1.12 sigma`` cutoff for the Chain benchmark.
WCA_CUTOFF = 2.0 ** (1.0 / 6.0)


class LennardJonesCut(AnalyticPairPotential):
    """12-6 Lennard-Jones truncated at ``cutoff``.

    Parameters
    ----------
    epsilon, sigma:
        Either scalars (single-type system) or per-type 1-D arrays that
        are combined through ``mix_style`` into cross-type tables.
    cutoff:
        Truncation distance (in units of sigma for reduced systems).
    shift:
        Shift the energy so it is zero at the cutoff (LAMMPS
        ``pair_modify shift yes``).  Keeps energies continuous, which the
        NVE conservation tests rely on.
    tail_correction:
        Add the standard analytic long-range corrections for the
        truncated LJ interaction (LAMMPS ``pair_modify tail yes``) to the
        reported energy and virial.  Assumes a homogeneous fluid and
        g(r) = 1 beyond the cutoff; see :meth:`tail_energy`.
    mix_style:
        One of ``arithmetic`` / ``geometric`` / ``sixthpower``.
    """

    def __init__(
        self,
        epsilon: float | np.ndarray = 1.0,
        sigma: float | np.ndarray = 1.0,
        cutoff: float = 2.5,
        *,
        shift: bool = True,
        tail_correction: bool = False,
        mix_style: str = "geometric",
    ) -> None:
        eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
        sig = np.atleast_1d(np.asarray(sigma, dtype=float))
        if eps.shape != sig.shape:
            raise ValueError("epsilon and sigma must have the same shape")
        self.eps_table, self.sigma_table = build_mixed_tables(eps, sig, mix_style)
        self.cutoff = float(cutoff)
        self.shift = bool(shift)
        self.tail_correction = bool(tail_correction)
        # Per-type-pair energy shift values at the cutoff.
        if self.shift:
            sr6 = (self.sigma_table / self.cutoff) ** 6
            self.shift_table = 4.0 * self.eps_table * (sr6 * sr6 - sr6)
        else:
            self.shift_table = np.zeros_like(self.eps_table)
        # Single-type systems (the LJ-melt and Chain benchmarks) skip the
        # per-pair coefficient gathers entirely and use scalars.
        self.needs_types = self.eps_table.size > 1

    def pair_terms(self, r, r2, type_i, type_j, q_i, q_j):
        # Python-float scalars and compute-dtype gathers keep the whole
        # formula in r2's dtype — a bare np.float64 scalar (or an f64
        # coefficient gather) would silently promote float32 pair math
        # back to float64 under NEP 50.
        if self.needs_types:
            # Cast the tiny n_types^2 tables (not the M-pair gathers).
            eps = self.eps_table.astype(r2.dtype, copy=False)[type_i, type_j]
            sigma = self.sigma_table.astype(r2.dtype, copy=False)[type_i, type_j]
            shift = self.shift_table.astype(r2.dtype, copy=False)[type_i, type_j]
        else:
            eps = float(self.eps_table[0, 0])
            sigma = float(self.sigma_table[0, 0])
            shift = float(self.shift_table[0, 0])
        inv_r2 = 1.0 / r2
        sr2 = sigma * sigma * inv_r2
        sr6 = sr2 * sr2 * sr2
        sr12 = sr6 * sr6
        energy = 4.0 * eps * (sr12 - sr6) - shift
        f_over_r = 24.0 * eps * (2.0 * sr12 - sr6) * inv_r2
        return energy, f_over_r

    def fused_style(self) -> PairStyle:
        # Built per call from the live attributes, so a cutoff or table
        # edited after construction reaches the fused kernel too.
        return PairStyle(
            "lj/cut",
            self.cutoff,
            tuple(
                np.ascontiguousarray(table, dtype=np.float64)
                for table in (self.eps_table, self.sigma_table, self.shift_table)
            ),
        )

    def tail_energy(self, n_atoms: int, volume: float) -> float:
        """Long-range energy correction of the truncated potential.

        ``E_tail = (8/3) pi N rho eps sigma^3 [ (1/3)(sigma/rc)^9 -
        (sigma/rc)^3 ]`` per type pair (single-type form; evaluated with
        the type-0 coefficients, matching the suite's single-type decks).
        """
        if n_atoms < 1 or volume <= 0:
            raise ValueError("n_atoms >= 1 and volume > 0 required")
        eps = float(self.eps_table[0, 0])
        sigma = float(self.sigma_table[0, 0])
        rho = n_atoms / volume
        sr3 = (sigma / self.cutoff) ** 3
        return (
            (8.0 / 3.0) * np.pi * n_atoms * rho * eps * sigma**3
            * (sr3**3 / 3.0 - sr3)
        )

    def tail_virial(self, n_atoms: int, volume: float) -> float:
        """Long-range virial correction (enters the pressure as W/3V).

        ``W_tail = 16 pi N rho eps sigma^3 [ (2/3)(sigma/rc)^9 -
        (sigma/rc)^3 ]``.
        """
        if n_atoms < 1 or volume <= 0:
            raise ValueError("n_atoms >= 1 and volume > 0 required")
        eps = float(self.eps_table[0, 0])
        sigma = float(self.sigma_table[0, 0])
        rho = n_atoms / volume
        sr3 = (sigma / self.cutoff) ** 3
        return (
            16.0 * np.pi * n_atoms * rho * eps * sigma**3
            * (2.0 * sr3**3 / 3.0 - sr3)
        )

    def system_terms(self, n_atoms, volume):
        if not self.tail_correction:
            return 0.0, 0.0
        return self.tail_energy(n_atoms, volume), self.tail_virial(n_atoms, volume)

    def pair_energy(self, r: np.ndarray, ti: int = 0, tj: int = 0) -> np.ndarray:
        """Scalar pair energy profile (handy for tests and plots)."""
        r = np.asarray(r, dtype=float)
        e, _ = self.pair_terms(
            r,
            r * r,
            np.full(r.shape, ti, dtype=np.int64),
            np.full(r.shape, tj, dtype=np.int64),
            np.zeros_like(r),
            np.zeros_like(r),
        )
        return np.where(r < self.cutoff, e, 0.0)
