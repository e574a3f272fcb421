"""Embedded-Atom Method (EAM) many-body potential for metals.

The paper's EAM benchmark simulates a copper fcc solid.  We implement
the classic analytic EAM decomposition (Daw & Baskes, 1984)::

    E = sum_i F(rho_i) + 1/2 sum_{i != j} phi(r_ij)
    rho_i = sum_{j != i} f(r_ij)

with exponential density ``f`` and pair-repulsion ``phi`` functions and
the Banerjea-Smith embedding functional ``F``.  Both radial functions
are truncated so that value *and* slope vanish at the cutoff, keeping
forces exactly equal to the analytic gradient (which the property-based
finite-difference tests check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.potentials.base import PairPotential, PairRows

__all__ = ["EAMParameters", "EAMAlloy"]


@dataclass(frozen=True)
class EAMParameters:
    """Analytic-EAM coefficients.

    Defaults give a copper-like fcc metal: ``r_e`` is the Cu nearest
    neighbour distance (``a / sqrt(2)`` with ``a = 3.615 Angstrom``) and
    the paper's Table 2 cutoff of ``4.95 Angstrom`` spans the third
    neighbour shell.
    """

    r_e: float = 2.556
    f_e: float = 1.0
    chi: float = 3.0
    phi_e: float = 0.65
    gamma: float = 5.0
    E_c: float = 3.54
    n_exp: float = 0.5
    rho_e: float = 12.0
    cutoff: float = 4.95


def _truncated_exponential(
    r: np.ndarray, amplitude: float, decay: float, r_e: float, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """``g(r) = A exp(-k (r - r_e))`` truncated smoothly at ``cutoff``.

    Returns ``(g, dg/dr)`` with ``g(rc) = g'(rc) = 0`` by subtracting the
    first-order Taylor expansion of ``g`` about the cutoff.
    """
    g = amplitude * np.exp(-decay * (r - r_e))
    g_c = amplitude * np.exp(-decay * (cutoff - r_e))
    value = g - g_c + decay * g_c * (r - cutoff)
    deriv = -decay * g + decay * g_c
    return value, deriv


class EAMAlloy(PairPotential):
    """Single-species analytic EAM potential.

    The evaluation is the textbook two-pass scheme:

    1. accumulate electron densities ``rho_i`` over all neighbours and
       compute embedding energies ``F(rho_i)`` and slopes ``F'(rho_i)``;
    2. walk the pair list again, combining the pair repulsion with both
       atoms' embedding slopes into the pair force.
    """

    def __init__(self, params: EAMParameters | None = None) -> None:
        self.params = params if params is not None else EAMParameters()
        self.cutoff = self.params.cutoff

    def halo_width(self, list_cutoff: float) -> float:
        """EAM needs neighbor-of-neighbor reach in the ghost shell.

        The pair force on an owned atom ``i`` involves ``F'(rho_j)`` of
        every partner ``j``, and ``rho_j`` sums density over *j's* own
        partners — atoms up to one interaction cutoff beyond ``j``.  A
        halo of ``list_cutoff + cutoff`` guarantees each halo atom within
        ``list_cutoff`` of the subdomain has its full density row.
        """
        return float(list_cutoff) + self.cutoff

    # -- radial functions ------------------------------------------------
    def density_function(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Electron density contribution ``f(r)`` and its derivative."""
        p = self.params
        return _truncated_exponential(r, p.f_e, p.chi, p.r_e, p.cutoff)

    def pair_function(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Morse-like pair term ``phi(r)`` and its derivative.

        ``phi = phi_e [e^{-2 gamma (r - r_e)} - 2 e^{-gamma (r - r_e)}]``
        has its minimum at ``r_e``; combined with the embedding minimum
        at ``rho_e`` this puts the fcc equilibrium at the copper lattice
        constant (tested via the cohesive-energy curve).
        """
        p = self.params
        steep, d_steep = _truncated_exponential(
            r, p.phi_e, 2.0 * p.gamma, p.r_e, p.cutoff
        )
        soft, d_soft = _truncated_exponential(r, p.phi_e, p.gamma, p.r_e, p.cutoff)
        return steep - 2.0 * soft, d_steep - 2.0 * d_soft

    def embedding_function(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Banerjea-Smith ``F(rho)`` and ``F'(rho)``.

        ``F(rho) = -E_c [1 - n ln(rho/rho_e)] (rho/rho_e)^n`` — negative
        (cohesive) around ``rho_e`` with a minimum exactly at ``rho_e``.
        """
        p = self.params
        rho = np.asarray(rho)
        if rho.dtype not in (np.float32, np.float64):
            rho = rho.astype(np.float64)
        # Dtype-aware underflow floor: 1e-300 flushes to 0 in float32,
        # which would let rho = 0 reach the log below.
        floor = float(np.finfo(rho.dtype).tiny) if rho.dtype == np.float32 else 1e-300
        rho = np.maximum(rho, floor)
        x = rho / p.rho_e
        log_x = np.log(x)
        xn = x**p.n_exp
        value = -p.E_c * (1.0 - p.n_exp * log_x) * xn
        deriv = p.E_c * p.n_exp**2 * log_x * xn / rho
        return value, deriv

    # -- evaluation --------------------------------------------------------
    def terms(self, rows: PairRows) -> int:
        # Ghost heads: F'(rho_j) of every partner needs j's complete row
        # (see halo_width).  With no pairs anywhere the embedding sum is
        # skipped entirely: exact zero, not F(rho -> 0).
        pairs = rows.within(self.cutoff, ghost_heads=True)
        if len(pairs) == 0:
            return pairs.interactions
        i, j, r = pairs.i, pairs.j, pairs.r

        # Pass 1: densities (summed in the policy's accumulate dtype,
        # float64 under MIXED) and embedding.
        f_r, df_r = self.density_function(r)
        F_rho, Fp_rho = self.embedding_function(rows.partner_sum(pairs, f_r))
        rows.add_atom_energy(F_rho)

        # Pass 2: pair repulsion plus density-mediated forces; the
        # embedding slopes are cast back to the compute dtype so the
        # per-pair force stays in it.
        phi, dphi = self.pair_function(r)
        Fp = Fp_rho.astype(r.dtype, copy=False)
        f_over_r = -(dphi + (Fp[i] + Fp[j]) * df_r) / r
        rows.add_radial(pairs, f_over_r)
        rows.add_energy(i, phi)
        rows.add_virial(i, f_over_r * pairs.r2)
        return pairs.interactions

    # -- analysis helpers ----------------------------------------------------
    def cohesive_energy_curve(
        self, lattice_constants: np.ndarray, coordination: int = 12
    ) -> np.ndarray:
        """Per-atom energy of an idealized first-shell fcc environment.

        A quick analytic sanity check: for each lattice constant ``a``
        the nearest-neighbour shell sits at ``a / sqrt(2)`` with the fcc
        coordination of 12.
        """
        a = np.asarray(lattice_constants, dtype=float)
        r_nn = a / np.sqrt(2.0)
        f, _ = self.density_function(r_nn)
        phi, _ = self.pair_function(r_nn)
        F, _ = self.embedding_function(coordination * f)
        return F + 0.5 * coordination * phi
