"""Tersoff bond-order potential for covalent solids (silicon).

The sixth workload: a *three-body* interaction shape none of the five
paper benchmarks exercises.  The SCC17 reproduction paper (PAPERS.md)
documents its vectorization story; this implementation keeps the
textbook form (Tersoff, PRB 38, 9902 (1988) — the "T3" silicon
parametrization)::

    E     = 1/2 sum_i sum_{j != i} fc(r_ij) [ fR(r_ij) + b_ij fA(r_ij) ]
    fR    = A exp(-lambda1 r)
    fA    = -B exp(-lambda2 r)
    b_ij  = (1 + (beta zeta_ij)^n)^(-1/(2n))
    zeta  = sum_{k != i,j} fc(r_ik) g(theta_ijk)
            exp(lambda3^m (r_ij - r_ik)^m)
    g     = gamma (1 + c^2/d^2 - c^2 / (d^2 + (h - cos theta)^2))

with the standard sine cutoff ramp between ``R - D`` and ``R + D``
(value *and* slope vanish at both ends, so forces stay the exact
analytic gradient — checked by the finite-difference property tests).

Because ``b_ij != b_ji``, every *directed* pair carries its own bond
order: the potential sets :attr:`needs_full_list` and evaluates each
ordered pair once, exactly like the granular contact model.  All pair
geometry and scatter accumulation go through the kernel-backend
primitives, so every registered backend (``numpy_ref``, ``numpy_fast``,
``compiled``) produces the same triplet traversal from the same CSR
rows, and the backend-parity contract holds at the 1e-12 tier.

A backend may take the whole evaluation instead, through the
:meth:`KernelBackend.pair_forces` hook (``compiled`` at float64 does:
one fused C pass per head atom); the numpy body stays as the oracle
that route must match at the same tier, and as the only route for
every other backend and precision.

The numpy triplet expansion is fully vectorized: directed pairs arrive sorted
by head atom (CSR order), so each pair's angular partners are the other
pairs of its own row — a ragged self-join built from ``bincount`` /
``cumsum`` / ``repeat``, no Python-level loop over atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.potentials.base import PairPotential, PairRows

__all__ = ["TersoffParameters", "Tersoff"]


@dataclass(frozen=True)
class TersoffParameters:
    """Tersoff coefficients; defaults are the 1988 "T3" silicon set.

    The values match the stock LAMMPS ``Si.tersoff`` file (metal units:
    eV and Angstrom).  ``R``/``D`` give the cutoff ramp midpoint and
    half-width, so the interaction cutoff is ``R + D = 3.0 Angstrom`` —
    just past the diamond first-neighbour shell at ``a sqrt(3)/4``.
    """

    A: float = 1830.8
    B: float = 471.18
    lambda1: float = 2.4799
    lambda2: float = 1.7322
    lambda3: float = 1.7322
    n: float = 0.78734
    beta: float = 1.1e-6
    c: float = 1.0039e5
    d: float = 16.217
    h: float = -0.59825
    gamma: float = 1.0
    m: int = 3
    R: float = 2.85
    D: float = 0.15

    @property
    def cutoff(self) -> float:
        return self.R + self.D


class Tersoff(PairPotential):
    """Single-species Tersoff potential over a full (directed) list."""

    #: Each directed pair carries its own bond order ``b_ij``.
    needs_full_list = True
    needs_types = False
    closed_form = "tersoff"

    def __init__(self, params: TersoffParameters | None = None) -> None:
        self.params = params if params is not None else TersoffParameters()
        self.cutoff = self.params.cutoff

    def halo_width(self, list_cutoff: float) -> float:
        """Tersoff needs neighbor-of-neighbor reach in the ghost shell.

        The bond order of a directed pair ``(i, j)`` sums over *i's* own
        neighbourhood, so — as for EAM's densities — halo atoms within
        ``list_cutoff`` of a subdomain must carry complete rows, which a
        shell of ``list_cutoff + cutoff`` guarantees.
        """
        return float(list_cutoff) + self.cutoff

    # -- scalar ingredient functions -------------------------------------
    def cutoff_function(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sine-ramp cutoff ``fc(r)`` and its derivative.

        1 below ``R - D``, 0 above ``R + D``, with zero slope at both
        ramp ends.
        """
        p = self.params
        r = np.asarray(r)
        x = (r - p.R) / p.D
        inside = 0.5 - 0.5 * np.sin(0.5 * np.pi * np.clip(x, -1.0, 1.0))
        fc = np.where(x <= -1.0, 1.0, np.where(x >= 1.0, 0.0, inside))
        ramp = (np.abs(x) < 1.0).astype(r.dtype)
        dfc = ramp * (
            -0.25 * np.pi / p.D * np.cos(0.5 * np.pi * np.clip(x, -1.0, 1.0))
        )
        return fc, dfc

    def repulsive(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``fR(r) = A exp(-lambda1 r)`` and its derivative."""
        p = self.params
        fr = p.A * np.exp(-p.lambda1 * r)
        return fr, -p.lambda1 * fr

    def attractive(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``fA(r) = -B exp(-lambda2 r)`` and its derivative."""
        p = self.params
        fa = -p.B * np.exp(-p.lambda2 * r)
        return fa, -p.lambda2 * fa

    def angular(self, cos_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``g(cos theta)`` and ``dg/dcos``."""
        p = self.params
        u = p.h - cos_theta
        denom = p.d * p.d + u * u
        g = p.gamma * (1.0 + p.c * p.c / (p.d * p.d) - p.c * p.c / denom)
        dg = -2.0 * p.gamma * p.c * p.c * u / (denom * denom)
        return g, dg

    def bond_order(self, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``b(zeta)`` and ``db/dzeta`` (0 at ``zeta = 0``: no triplets,
        no angular force)."""
        p = self.params
        zeta = np.asarray(zeta)
        safe = np.where(zeta > 0.0, zeta, 1.0)
        bz = (p.beta * safe) ** p.n
        b = (1.0 + bz) ** (-0.5 / p.n)
        db = -0.5 * bz / safe * (1.0 + bz) ** (-0.5 / p.n - 1.0)
        one = np.ones_like(zeta)
        return np.where(zeta > 0.0, b, one), np.where(zeta > 0.0, db, 0.0)

    # -- evaluation -------------------------------------------------------
    def terms(self, rows: PairRows) -> int:
        # The numpy body is the oracle a fused kernel answers to.
        # Directed terms: every ordered pair carries its own bond order,
        # and a row's pairs arrive together (CSR order serially; heads
        # in global-id order on an engine worker).
        pairs = rows.within(self.cutoff, directed=True)
        i, j, dr, r = pairs.i, pairs.j, pairs.dr, pairs.r
        n_pairs = len(i)
        if n_pairs == 0:
            return pairs.interactions
        kernel = rows.backend
        ct = dr.dtype

        p = self.params
        fc, dfc = self.cutoff_function(r)
        fr, dfr = self.repulsive(r)
        fa, dfa = self.attractive(r)

        # --- ragged self-join: pair p with every other pair q of its row.
        row_start = np.concatenate(([0], np.flatnonzero(i[1:] != i[:-1]) + 1))
        counts = np.diff(np.append(row_start, n_pairs))
        reps = np.repeat(counts, counts)  # row population, per pair
        t_p = np.repeat(np.arange(n_pairs), reps)
        segment_base = np.repeat(np.cumsum(reps) - reps, reps)
        t_q = np.repeat(np.repeat(row_start, counts), reps) + (
            np.arange(len(t_p)) - segment_base
        )
        keep = t_q != t_p  # exclude k == j (rows never repeat a partner)
        t_p, t_q = t_p[keep], t_q[keep]

        # --- zeta over triplets (i fixed per row; j from p, k from q).
        r_p, r_q = r[t_p], r[t_q]
        inv_rp, inv_rq = 1.0 / r_p, 1.0 / r_q
        # dr = x_i - x_j, so the unit bond vectors point *away from* i
        # with a sign flip; the flips cancel inside cos(theta).
        cos_theta = (
            np.einsum("ij,ij->i", dr[t_p], dr[t_q]) * inv_rp * inv_rq
        )
        g, dg = self.angular(cos_theta)
        fc_q, dfc_q = fc[t_q], dfc[t_q]
        diff = r_p - r_q
        lam3m = p.lambda3**p.m
        if p.m == 3:
            expo = np.exp(lam3m * diff * diff * diff)
            dexpo = 3.0 * lam3m * diff * diff * expo
        else:
            expo = np.exp(lam3m * diff**p.m)
            dexpo = p.m * lam3m * diff ** (p.m - 1) * expo

        zeta = np.zeros(n_pairs, dtype=kernel.policy.accumulate_dtype)
        with rows.tracer.span("kernel.scatter_add", "kernel"):
            kernel.scatter_add(zeta, t_p, fc_q * g * expo)
        b, db = self.bond_order(zeta)
        b = b.astype(ct, copy=False)
        db = db.astype(ct, copy=False)

        # --- energy and radial pair force (bond order held fixed).
        rows.add_energy(i, 0.5 * fc * (fr + b * fa))
        w = 0.5 * (dfc * (fr + b * fa) + fc * (dfr + b * dfa))

        # force = -dE/dx; dE/dx_i = w * dr / r for the radial part.
        f_over_r = -w * (1.0 / r)
        rows.add_radial(pairs, f_over_r)
        rows.add_virial(i, f_over_r * r * r)

        # --- angular/zeta gradients, per triplet.
        # dE/dzeta of pair p, gathered onto its triplets.
        dE_dzeta = (0.5 * fc * fa * db)[t_p]
        g_q = fc_q * g  # shorthand for the zeta prefactor sans expo
        dz_drp = fc_q * g * dexpo
        dz_drq = dfc_q * g * expo - g_q * dexpo
        dz_dcos = fc_q * dg * expo

        ii, jj, kk = i[t_p], j[t_p], j[t_q]
        e1 = -dr[t_p] * inv_rp[:, None]  # unit i -> j
        e2 = -dr[t_q] * inv_rq[:, None]  # unit i -> k

        # Radial channels: r_p moves i and j, r_q moves i and k.
        s1 = (dE_dzeta * dz_drp)[:, None] * e1
        s2 = (dE_dzeta * dz_drq)[:, None] * e2
        # Angle channel: standard cos-theta gradients.
        s3 = dE_dzeta * dz_dcos
        dcos_dj = (e2 - cos_theta[:, None] * e1) * inv_rp[:, None]
        dcos_dk = (e1 - cos_theta[:, None] * e2) * inv_rq[:, None]
        f_j = -(s1 + s3[:, None] * dcos_dj)
        f_k = -(s2 + s3[:, None] * dcos_dk)
        rows.push("forces", jj, f_j)
        rows.push("forces", kk, f_k)
        rows.push("forces", ii, -(f_j + f_k))

        # The cos-theta channel is virial-free (its gradients are
        # orthogonal to their bond vectors); only the radial channels
        # contribute, each ``-r dE/dr`` like the pair part above.
        rows.add_virial(ii, -(np.einsum("ij,ij->i", s1, e1) * r_p))
        rows.add_virial(ii, -(np.einsum("ij,ij->i", s2, e2) * r_q))
        return pairs.interactions

    # -- analysis helpers -------------------------------------------------
    def dimer_energy(self, r: float) -> float:
        """Energy of an isolated pair (``zeta = 0``, ``b = 1``)."""
        arr = np.asarray([float(r)])
        fc, _ = self.cutoff_function(arr)
        fr, _ = self.repulsive(arr)
        fa, _ = self.attractive(arr)
        return float(fc[0] * (fr[0] + fa[0]))
