"""The native provider of the ``compiled`` kernel backend.

The ``compiled`` backend delivers native-code speed anywhere a C
compiler is on ``PATH``: this module carries a single self-contained C
translation unit implementing the Pair/Neigh hot loops, builds it once
into a cached shared object with strict IEEE flags, and binds it via
the stdlib ``ctypes`` — no third-party build dependency at all.

A native kernel is one C body plus one row of :data:`KERNELS`: a body
that exists at more than one precision is written once, over a value
type ``VAL`` and an accumulator type ``ACC``, and instantiated for the
dtype pairs the policies of :mod:`repro.md.precision` define; binding,
dtype-keyed dispatch and smoke-test coverage all follow from the row.

Numerical contract (pinned by the provider smoke test and the backend
oracle tests):

* Minimum image uses the exact ``dr -= rint(dr / L) * L`` sequence of
  ``Box.minimum_image`` (round-half-even ``rint``), per periodic dim.
  The neighbor builds alone use a cheaper compare-and-shift, under
  checked preconditions that make it select the same pairs with the
  same ``r2`` (argument at ``cell_bins`` below).
* Squared distances replicate ``np.einsum("ij,ij->i")``'s pairwise
  summation order — ``(xx + zz) + yy`` for float64 and
  ``(xx + yy) + zz`` for float32 — so the surviving pair set and the
  per-pair ``dr``/``r`` values match the numpy backends *bitwise*.
* The scatter loops accumulate in input order, which is bitwise
  identical to ``np.bincount`` when the destination rows start at
  zero; the mixed instances widen each float32 term to float64
  before adding, exactly as bincount's float64 accumulator does.
* Compilation uses ``-fno-fast-math -ffp-contract=off`` so the
  compiler can neither reassociate sums nor contract multiply-adds
  into FMAs — either would silently break the bitwise contract.

The build cache defaults to a ``.cc_cache`` directory next to this
file (overridable via ``$REPRO_COMPILED_CACHE``), keyed by a hash of
the generated source and flags, and populated through an atomic rename
so concurrent worker processes never observe a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.md.precision import DOUBLE_POLICY, PRECISIONS, policy_for

__all__ = ["CcProvider", "CACHE_ENV_VAR", "KERNELS", "symbol"]

#: Environment override for the shared-object build cache directory.
CACHE_ENV_VAR = "REPRO_COMPILED_CACHE"

#: IEEE-strict flags: no value-changing optimizations, no FMA
#: contraction.  Reordering either sum would break bitwise parity with
#: the numpy backends.
_CFLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_PRELUDE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* The geometry every sweep over a stored list shares (pair_geom and   */
/* the fused passes, which must agree with it bitwise): BOX_LOCALS     */
/* unpacks the box once per call; PAIR_GEOMETRY declares one pair's    */
/* minimum-image dx, dy, dz and their r2, in einsum's summation order, */
/* from the position rows P and Q.  Both expand under the instance     */
/* macros of the body that uses them.                                  */
/* ------------------------------------------------------------------ */

#define BOX_LOCALS                                                         \
    VAL Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];                 \
    VAL hx = F(0.49) * Lx, hy = F(0.49) * Ly, hz = F(0.49) * Lz;           \
    int px = periodic[0], py = periodic[1], pz = periodic[2];

#define PAIR_GEOMETRY(P, Q)                                                \
    const VAL *p = (P), *q = (Q);                                          \
    VAL dx = p[0] - q[0], dy = p[1] - q[1], dz = p[2] - q[2];              \
    if (px) dx = FN(min_image)(dx, Lx, hx);                                \
    if (py) dy = FN(min_image)(dy, Ly, hy);                                \
    if (pz) dz = FN(min_image)(dz, Lz, hz);                                \
    VAL r2 = R2(dx*dx, dy*dy, dz*dz);
"""

# The templates below are compiled once per instance with these macros
# set (see _instantiate): VAL / ACC the value and accumulator types,
# FN(stem) the instance's symbol, F(x) the libm name or literal x at
# VAL's width (rint -> rintf, 0.49 -> 0.49f), R2(xx, yy, zz) the sum of
# three squares in the association einsum uses at VAL's width.

_ACCUMULATE_C = r"""
/* ------------------------------------------------------------------ */
/* Scatter primitives: out[idx[k]] += v[k] in input order.             */
/* Input-order serial accumulation is bitwise-identical to             */
/* np.bincount whenever the destination starts at zero; (ACC) widens   */
/* each term first — the identity when VAL is ACC, else (float32 into  */
/* float64) what bincount's always-float64 accumulator does.           */
/* ------------------------------------------------------------------ */

void FN(scatter1)(ACC *out, const int64_t *idx, const VAL *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += (ACC)v[k];
}

void FN(scatter3)(ACC *out, const int64_t *idx, const VAL *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += (ACC)v[3*k];
        out[3*a+1] += (ACC)v[3*k+1];
        out[3*a+2] += (ACC)v[3*k+2];
    }
}

/* ------------------------------------------------------------------ */
/* Pair-force accumulation.                                            */
/* Fused half-list scatter: one pass over the CSR-ordered pair list;   */
/* the i side is segment-accumulated in registers while consecutive    */
/* rows share the same i (the list's native layout), the j side is     */
/* scattered inline.  Correct for any row order — unsorted i just      */
/* degenerates to length-1 segments.  MIXED policy: float32 per-pair   */
/* products (VAL), float64 accumulation (ACC).                         */
/* ------------------------------------------------------------------ */

void FN(acc_scaled)(ACC *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const VAL *dr, const VAL *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        ACC sx = 0, sy = 0, sz = 0;
        do {
            VAL f = f_over_r[k];
            VAL vx = f * dr[3*k], vy = f * dr[3*k+1], vz = f * dr[3*k+2];
            ACC wx = (ACC)vx, wy = (ACC)vy, wz = (ACC)vz;
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void FN(acc_pair)(ACC *forces, const int64_t *pi, const int64_t *pj,
                  int64_t m, const VAL *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        ACC sx = 0, sy = 0, sz = 0;
        do {
            ACC wx = (ACC)fv[3*k], wy = (ACC)fv[3*k+1], wz = (ACC)fv[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}
"""

_GEOMETRY_C = r"""
/* ------------------------------------------------------------------ */
/* Minimum image of one displacement component on a periodic axis,     */
/* with h = 0.49 * L.  For |d| <= h the quotient d / L rounds to +-0,  */
/* so d - rint(d / L) * L is d itself (+0.0 for either zero, which is  */
/* what `d + 0.0` gives): the divide and the libm call are skipped for */
/* every pair that does not straddle the box.  NaN fails the compare   */
/* and takes the full expression.                                      */
/* ------------------------------------------------------------------ */

static inline VAL FN(min_image)(VAL d, VAL L, VAL h) {
    return F(fabs)(d) <= h ? d + F(0.0) : d - F(rint)(d / L) * L;
}

/* ------------------------------------------------------------------ */
/* Pair geometry over the stored list: gather, minimum image, cutoff   */
/* filter.  Outputs are compressed in place; returns the survivor      */
/* count.  r2 replicates einsum's per-dtype summation order.           */
/* ------------------------------------------------------------------ */

int64_t FN(pair_geom)(const VAL *pos, const int64_t *pi, const int64_t *pj,
                      int64_t m, const VAL *lengths, const uint8_t *periodic,
                      VAL rc2, int64_t *oi, int64_t *oj, VAL *odr, VAL *orr) {
    BOX_LOCALS
    int64_t c = 0;
    for (int64_t k = 0; k < m; k++) {
        PAIR_GEOMETRY(pos + 3*pi[k], pos + 3*pj[k])
        if (r2 < rc2) {
            oi[c] = pi[k]; oj[c] = pj[k];
            odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
            orr[c] = F(sqrt)(r2);
            c++;
        }
    }
    return c;
}
"""

# float64-only kernels; min_image_f64 is _GEOMETRY_C's float64 instance.
_DOUBLE_C = r"""
/* ------------------------------------------------------------------ */
/* Fused lj/cut force pass: stored list -> forces in one sweep.        */
/*                                                                     */
/* Per stored pair: gather, minimum image and cutoff test exactly as   */
/* pair_geom_f64, then LennardJonesCut.pair_terms' float64 sequence,   */
/* one IEEE operation per numpy ufunc call:                            */
/*   inv_r2 = 1 / r2; sr2 = (sigma * sigma) * inv_r2;                  */
/*   sr6 = (sr2 * sr2) * sr2; sr12 = sr6 * sr6;                        */
/*   energy = (4 eps) * (sr12 - sr6) - shift;                          */
/*   f_over_r = ((24 eps) * (2 sr12 - sr6)) * inv_r2.                  */
/* nt == 1 takes the [0, 0] coefficients (the potential's scalar path, */
/* which ignores atom types); otherwise the row-major nt x nt tables   */
/* are read at [type_i, type_j] — the values the numpy gathers hand    */
/* out — so both routes are bitwise the unfused result.                */
/* ------------------------------------------------------------------ */

#define LJ_COEFFS(TI, TJ)                                                  \
    if (nt > 1) {                                                          \
        int64_t t = types[TI] * nt + types[TJ];                            \
        e4 = 4.0 * eps[t]; e24 = 24.0 * eps[t];                            \
        ss = sigma[t] * sigma[t]; sh = shift[t];                           \
    }

#define LJ_TERMS(R2)                                                       \
    double inv_r2 = 1.0 / (R2);                                            \
    double sr2 = ss * inv_r2;                                              \
    double sr6 = (sr2 * sr2) * sr2;                                        \
    double sr12 = sr6 * sr6;                                               \
    double energy = e4 * (sr12 - sr6) - sh;                                \
    double f = (e24 * (2.0 * sr12 - sr6)) * inv_r2;

/* Half list, both sides (newton on).  The serial path feeds           */
/* pair_terms r2 = r * r with r = sqrt(einsum r2); that is replayed.   */
/* The force update is acc_scaled_f64 over the surviving pairs: a run  */
/* of survivors sharing one i is summed from zero in registers and     */
/* added to row i when the run ends, each pair's j side is subtracted  */
/* inline.  Per-pair energy and f_over_r * r2 are written compressed   */
/* to oe/ov for numpy's pairwise np.sum, whose rounding a running      */
/* total here could not reproduce.  Returns the survivor count.        */
int64_t lj_half_f64(const double *pos, const int64_t *pi, const int64_t *pj,
                    int64_t m, const double *lengths, const uint8_t *periodic,
                    double rc2, const int64_t *types, int64_t nt,
                    const double *eps, const double *sigma,
                    const double *shift, double *forces,
                    double *oe, double *ov) {
    BOX_LOCALS
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t c = 0, a = -1;
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = pi[k], j = pj[k];
        PAIR_GEOMETRY(pos + 3*i, pos + 3*j)
        if (!(r2 < rc2)) continue;
        if (i != a) {
            if (a >= 0) {
                forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
            }
            a = i;
            sx = 0.0; sy = 0.0; sz = 0.0;
        }
        LJ_COEFFS(i, j)
        double r = sqrt(r2);
        double rr = r * r;
        LJ_TERMS(rr)
        oe[c] = energy;
        ov[c] = f * rr;
        c++;
        double wx = f * dx, wy = f * dy, wz = f * dz;
        sx += wx; sy += wy; sz += wz;
        forces[3*j] -= wx; forces[3*j+1] -= wy; forces[3*j+2] -= wz;
    }
    if (a >= 0) {
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
    return c;
}

/* Directed rows, i side only (the parallel engine's newton-off        */
/* scheme).  Row k pairs local atoms di[k] (owned; indexes the output  */
/* arrays and types) and dj[k]; positions are read from the global     */
/* array at gi[k] / gj[k].  That path hands pair_terms einsum's r2     */
/* unchanged.  Force, 0.5 * energy and (0.5 * f_over_r) * r2 are added */
/* to row di[k] pair after pair in list order — what the scatter       */
/* kernels above do to the unfused per-pair arrays — with the row held */
/* in registers while consecutive pairs share it.  Returns the         */
/* survivor count.                                                     */
int64_t lj_rows_f64(const double *pos, const int64_t *di, const int64_t *dj,
                    const int64_t *gi, const int64_t *gj, int64_t m,
                    const double *lengths, const uint8_t *periodic,
                    double rc2, const int64_t *types, int64_t nt,
                    const double *eps, const double *sigma,
                    const double *shift, double *forces,
                    double *energy_out, double *virial_out) {
    BOX_LOCALS
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t c = 0, a = -1;
    double sx = 0.0, sy = 0.0, sz = 0.0, se = 0.0, sv = 0.0;
    for (int64_t k = 0; k < m; k++) {
        PAIR_GEOMETRY(pos + 3*gi[k], pos + 3*gj[k])
        if (!(r2 < rc2)) continue;
        int64_t i = di[k];
        if (i != a) {
            if (a >= 0) {
                forces[3*a] = sx; forces[3*a+1] = sy; forces[3*a+2] = sz;
                energy_out[a] = se; virial_out[a] = sv;
            }
            a = i;
            sx = forces[3*a]; sy = forces[3*a+1]; sz = forces[3*a+2];
            se = energy_out[a]; sv = virial_out[a];
        }
        LJ_COEFFS(i, dj[k])
        LJ_TERMS(r2)
        sx += f * dx; sy += f * dy; sz += f * dz;
        se += 0.5 * energy;
        sv += (0.5 * f) * r2;
        c++;
    }
    if (a >= 0) {
        forces[3*a] = sx; forces[3*a+1] = sy; forces[3*a+2] = sz;
        energy_out[a] = se; virial_out[a] = sv;
    }
    return c;
}
#undef LJ_COEFFS
#undef LJ_TERMS

/* ------------------------------------------------------------------ */
/* Fused Tersoff pass: full (directed) CSR list -> forces, one head    */
/* atom i at a time.                                                   */
/*                                                                     */
/* 1. Row filter: gather, minimum image and cutoff test exactly as     */
/*    pair_geom_f64 (so the bond set is the unfused path's), and per   */
/*    surviving bond the unit vector i -> j, r, 1/r, the sine ramp     */
/*    fc/fc' (libm only inside R +- D) and fR, fA, compressed into the */
/*    caller's row scratch: `cap` slots, cap >= the longest stored     */
/*    row.  Nothing is allocated here.                                 */
/* 2. Per bond j: zeta over the row's other bonds k, caching cos and   */
/*    the three zeta derivatives (d/dr_ij, d/dr_ik, d/dcos) per k;     */
/*    b and b' from two pow; pair energy and radial slope; then the k  */
/*    loop again for the gradient channels.                            */
/* 3. Whatever the row pushes onto its neighbors is summed per slot    */
/*    and scattered once; i takes the negative total, so Newton's      */
/*    third law holds per row by construction.                         */
/*                                                                     */
/* Tersoff.compute's numpy body is the oracle.  exp/pow/sin/cos here   */
/* are libm's and numpy's are its own SIMD loops, which round a few    */
/* percent of arguments differently, so this pass is *equivalent* to   */
/* that body (forces/energy/virial to 1e-12), not bitwise; g keeps the */
/* oracle's association because its two 4e7 terms cancel to O(1).      */
/* Energy and virial are summed per row, rows in list order, into      */
/* totals[0..1] (assigned, not accumulated).  m must be 1 or 3 (the    */
/* caller checks).  Returns the number of bonds inside the cutoff.     */
/* ------------------------------------------------------------------ */

enum {
    TS_A, TS_B, TS_LAMBDA1, TS_LAMBDA2, TS_LAMBDA3, TS_N, TS_BETA,
    TS_C, TS_D, TS_H, TS_GAMMA, TS_M, TS_BIGR, TS_BIGD
};

int64_t tersoff_full_f64(const double *pos, int64_t n, const int64_t *offsets,
                         const int64_t *pj, const double *lengths,
                         const uint8_t *periodic, double rc2,
                         const double *prm, int64_t cap, double *scratch,
                         int64_t *atom, double *forces, double *totals) {
    BOX_LOCALS
    const double A = prm[TS_A], B = prm[TS_B];
    const double lam1 = prm[TS_LAMBDA1], lam2 = prm[TS_LAMBDA2];
    const double nn = prm[TS_N], beta = prm[TS_BETA], h = prm[TS_H];
    const double bigR = prm[TS_BIGR], bigD = prm[TS_BIGD];
    const int cubic = prm[TS_M] == 3.0;
    const double lam3m = pow(prm[TS_LAMBDA3], prm[TS_M]);
    const double c2 = prm[TS_C] * prm[TS_C], d2 = prm[TS_D] * prm[TS_D];
    const double g_one = 1.0 + c2 / d2, gamma = prm[TS_GAMMA];
    const double dg_scale = -2.0 * gamma * prm[TS_C] * prm[TS_C];
    const double pi = 3.14159265358979323846;   /* M_PI is not ISO C */
    const double half_pi = 0.5 * pi, dfc_scale = -0.25 * pi / bigD;
    const double b_power = -0.5 / nn;

    double *ex = scratch, *ey = ex + cap, *ez = ey + cap;
    double *rr = ez + cap, *ir = rr + cap, *fc = ir + cap, *dfc = fc + cap;
    double *fr = dfc + cap, *fa = fr + cap;
    double *cs = fa + cap, *zj = cs + cap, *zk = zj + cap, *zc = zk + cap;
    double *bx = zc + cap, *by = bx + cap, *bz = by + cap;

    int64_t count = 0;
    double energy = 0.0, virial = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t nb = 0;
        for (int64_t k = offsets[i]; k < offsets[i+1]; k++) {
            PAIR_GEOMETRY(pos + 3*i, pos + 3*pj[k])
            if (!(r2 < rc2)) continue;
            double r = sqrt(r2), inv = 1.0 / r;
            double x = (r - bigR) / bigD, ramp = 1.0, slope = 0.0;
            if (x >= 1.0) {
                ramp = 0.0;
            } else if (x > -1.0) {
                ramp = 0.5 - 0.5 * sin(half_pi * x);
                slope = dfc_scale * cos(half_pi * x);
            }
            atom[nb] = pj[k];
            ex[nb] = -dx * inv; ey[nb] = -dy * inv; ez[nb] = -dz * inv;
            rr[nb] = r; ir[nb] = inv; fc[nb] = ramp; dfc[nb] = slope;
            fr[nb] = A * exp(-lam1 * r);
            fa[nb] = -B * exp(-lam2 * r);
            bx[nb] = 0.0; by[nb] = 0.0; bz[nb] = 0.0;
            nb++;
        }
        count += nb;

        double row_energy = 0.0, row_virial = 0.0;
        for (int64_t j = 0; j < nb; j++) {
            double zeta = 0.0;
            for (int64_t k = 0; k < nb; k++) {
                if (k == j) continue;
                double c = (ex[j]*ex[k] + ez[j]*ez[k]) + ey[j]*ey[k];
                double u = h - c, denom = d2 + u * u;
                double g = gamma * (g_one - c2 / denom);
                double dg = dg_scale * u / (denom * denom);
                double diff = rr[j] - rr[k], e, de;
                if (cubic) {
                    e = exp(lam3m * diff * diff * diff);
                    de = 3.0 * lam3m * diff * diff * e;
                } else {
                    e = exp(lam3m * diff);
                    de = lam3m * e;
                }
                double fg = fc[k] * g;
                zeta += fg * e;
                cs[k] = c;
                zj[k] = fg * de;
                zk[k] = dfc[k] * g * e - fg * de;
                zc[k] = fc[k] * dg * e;
            }
            double b = 1.0, db = 0.0;
            if (zeta > 0.0) {
                double bzeta = pow(beta * zeta, nn), base = 1.0 + bzeta;
                b = pow(base, b_power);
                db = -0.5 * bzeta / zeta * (b / base);
            }
            double bond = fr[j] + b * fa[j];
            double w = 0.5 * (dfc[j] * bond
                              + fc[j] * (-lam1 * fr[j] - b * lam2 * fa[j]));
            row_energy += 0.5 * fc[j] * bond;
            row_virial -= w * rr[j];

            /* dE/dzeta of this bond, spread over its triplets: the     */
            /* e_j parts (radial slope w, d/dr_ij and the -cos e_j half */
            /* of d/dcos) are summed first and applied once.            */
            double dE = 0.5 * fc[j] * fa[j] * db;
            double along = w, sc = 0.0, vx = 0.0, vy = 0.0, vz = 0.0;
            for (int64_t k = 0; k < nb; k++) {
                if (k == j) continue;
                double a1 = dE * zj[k], a2 = dE * zk[k], s3 = dE * zc[k];
                double tk = s3 * ir[k], ak = a2 - tk * cs[k];
                along += a1;
                sc += s3 * cs[k];
                vx += s3 * ex[k]; vy += s3 * ey[k]; vz += s3 * ez[k];
                bx[k] -= ak * ex[k] + tk * ex[j];
                by[k] -= ak * ey[k] + tk * ey[j];
                bz[k] -= ak * ez[k] + tk * ez[j];
                row_virial -= a1 * rr[j] + a2 * rr[k];
            }
            along -= ir[j] * sc;
            bx[j] -= along * ex[j] + ir[j] * vx;
            by[j] -= along * ey[j] + ir[j] * vy;
            bz[j] -= along * ez[j] + ir[j] * vz;
        }
        double sx = 0.0, sy = 0.0, sz = 0.0;
        for (int64_t j = 0; j < nb; j++) {
            int64_t a = atom[j];
            forces[3*a] += bx[j]; forces[3*a+1] += by[j]; forces[3*a+2] += bz[j];
            sx += bx[j]; sy += by[j]; sz += bz[j];
        }
        forces[3*i] -= sx; forces[3*i+1] -= sy; forces[3*i+2] -= sz;
        energy += row_energy;
        virial += row_virial;
    }
    totals[0] = energy;
    totals[1] = virial;
    return count;
}

/* ------------------------------------------------------------------ */
/* Link-cell binning shared by the two neighbor builds below: the      */
/* grid, clamped cell coordinates and stable counting sort (== argsort */
/* kind="stable") of cell_list_half_pairs in repro.md.neighbor.        */
/* order[starts[c] .. starts[c+1]) lists cell c's atoms by ascending   */
/* index and slot[a] is atom a's place in order.                       */
/*                                                                     */
/* The builds take minimum image as a compare-and-shift (dx -/+= L     */
/* when |dx| > L/2) in place of pair_geom's dx -= rint(dx / L) * L.    */
/* For |dx| <= 1.5 L both subtract k*L with k in -1/0/+1 in one        */
/* rounding, so they agree bitwise whenever they pick the same k; they */
/* can pick differently only for |dx| within rounding of L/2 or 3L/2,  */
/* where both leave |dx| ~ L/2, and with L >= 3 rc such a pair has     */
/* r2 >= 2.25 rc^2 and is rejected either way.  Both conditions are    */
/* checked here, not assumed: every coordinate on a periodic dim must  */
/* lie within L/4 of the box (wrapped positions do, to rounding) and   */
/* every periodic dim must hold >= 3 cells, else binning returns -2    */
/* and the caller takes the numpy path (-1: allocation failure, 0:     */
/* binned).  So does a grid of more than INT32_MAX cells — the bound   */
/* cell_list_half_pairs names in its error: the count is multiplied up */
/* in double, so neither it nor the flat cell index can wrap.          */
/* cell_bins_free releases whatever was allocated.                     */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t n_cells[3], sx, sy;
    int64_t *coords, *flat, *starts, *fill, *order, *slot;
} cell_bins;

static void cell_bins_free(cell_bins *g) {
    free(g->coords); free(g->flat); free(g->starts);
    free(g->fill); free(g->order); free(g->slot);
}

static int64_t cell_bins_build(cell_bins *g, const double *pos, int64_t n,
                               const double *lengths, const double *origin,
                               const uint8_t *periodic, double rc) {
    double cell_size[3], grid = 1.0;
    g->coords = g->flat = g->starts = g->fill = g->order = g->slot = NULL;
    for (int d = 0; d < 3; d++) {
        double nc = floor(lengths[d] / rc);
        if (!(nc >= 1.0)) nc = 1.0;
        grid *= nc;
        if (!(grid <= (double)INT32_MAX)) return -2;
        g->n_cells[d] = (int64_t)nc;
        cell_size[d] = lengths[d] / nc;
        if (periodic[d] && g->n_cells[d] < 3) return -2;
    }
    const int64_t *n_cells = g->n_cells;
    int64_t sy = g->sy = n_cells[2], sx = g->sx = n_cells[1] * n_cells[2];
    int64_t total_cells = n_cells[0] * n_cells[1] * n_cells[2];
    int64_t *coords = g->coords = malloc((size_t)n * 3 * sizeof(int64_t));
    int64_t *flat = g->flat = malloc((size_t)n * sizeof(int64_t));
    int64_t *starts = g->starts = calloc((size_t)total_cells + 1, sizeof(int64_t));
    int64_t *fill = g->fill = malloc((size_t)total_cells * sizeof(int64_t));
    int64_t *order = g->order = malloc((size_t)n * sizeof(int64_t));
    int64_t *slot = g->slot = malloc((size_t)n * sizeof(int64_t));
    if (!coords || !flat || !starts || !fill || !order || !slot) return -1;
    for (int64_t a = 0; a < n; a++) {
        for (int d = 0; d < 3; d++) {
            double rel = pos[3*a+d] - origin[d];
            if (periodic[d]
                && !(rel >= -0.25 * lengths[d] && rel <= 1.25 * lengths[d]))
                return -2;
            int64_t c = (int64_t)floor(rel / cell_size[d]);
            if (c > n_cells[d] - 1) c = n_cells[d] - 1;
            if (c < 0) c = 0;
            coords[3*a+d] = c;
        }
        flat[a] = coords[3*a] * sx + coords[3*a+1] * sy + coords[3*a+2];
        starts[flat[a] + 1]++;
    }
    for (int64_t c = 0; c < total_cells; c++) {
        starts[c+1] += starts[c];
        fill[c] = starts[c];
    }
    for (int64_t a = 0; a < n; a++) {               /* stable */
        slot[a] = fill[flat[a]]++;
        order[slot[a]] = a;
    }
    return 0;
}

/* Every atom b = order[l], l in [S, E), against the anchor at          */
/* (ax, ay, az): minimum image as above, einsum's f64 r2 order, and     */
/* ACCEPT (which sees b and r2) for those inside rc2.  Expects the      */
/* IMAGE_LOCALS of the enclosing build in scope.                        */
#define IMAGE_LOCALS                                                       \
    int px = periodic[0], py = periodic[1], pz = periodic[2];              \
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];              \
    double hx = 0.5 * Lx, hy = 0.5 * Ly, hz = 0.5 * Lz;                    \
    double rc2 = rc * rc;

#define SCAN_RANGE(S, E, ACCEPT)                                           \
    for (int64_t l = (S); l < (E); l++) {                                  \
        int64_t b = order[l];                                              \
        double dx = ax - pos[3*b];                                         \
        double dy = ay - pos[3*b+1];                                       \
        double dz = az - pos[3*b+2];                                       \
        if (px) { if (dx > hx) dx -= Lx; else if (dx < -hx) dx += Lx; }    \
        if (py) { if (dy > hy) dy -= Ly; else if (dy < -hy) dy += Ly; }    \
        if (pz) { if (dz > hz) dz -= Lz; else if (dz < -hz) dz += Lz; }    \
        double r2 = (dx*dx + dz*dz) + dy*dy;       /* einsum f64 order */  \
        if (r2 < rc2) { ACCEPT }                                           \
    }

/* ------------------------------------------------------------------ */
/* Link-cell half pair list, built row by row (CSR).  Candidates are   */
/* those of cell_list_half_pairs — later members of the anchor's own   */
/* cell in sorted slot order, the 13-offset forward stencil with       */
/* Python-modulo wrapping on periodic dims — but the anchors are       */
/* walked in atom index order and each anchor's partners land          */
/* contiguously, so one insertion sort of that short row leaves the    */
/* output in the exact order np.lexsort((j, i)) would give: no sort is */
/* left for the caller.  offsets[a]..offsets[a+1] is atom a's row;     */
/* *within counts stored pairs with r2 < count_rc2 (the Table-2        */
/* neighbors/atom statistic), saving the caller a second geometry      */
/* sweep.                                                              */
/*                                                                     */
/* Writes at most `cap` pairs but keeps counting; the caller grows its */
/* buffers and reruns when the returned count > cap.  Negative returns */
/* are cell_bins_build's.                                              */
/* ------------------------------------------------------------------ */

static inline int64_t wrap_mod(int64_t x, int64_t n) {
    int64_t r = x % n;
    return r < 0 ? r + n : r;
}

int64_t cell_csr_f64(const double *pos, int64_t n, const double *lengths,
                     const double *origin, const uint8_t *periodic, double rc,
                     double count_rc2, int64_t *oi, int64_t *oj, int64_t cap,
                     int64_t *offsets, int64_t *within_out) {
    cell_bins g;
    int64_t count = cell_bins_build(&g, pos, n, lengths, origin, periodic, rc);
    if (count < 0) goto done;
    const int64_t *n_cells = g.n_cells, *coords = g.coords, *flat = g.flat;
    const int64_t *starts = g.starts, *order = g.order, *slot = g.slot;
    int64_t sx = g.sx, sy = g.sy;
    IMAGE_LOCALS
    int64_t within = 0;

    /* The 13 forward offsets of _HALF_STENCIL, in its order. */
    static const int off[13][3] = {
        {0,0,1}, {0,1,-1}, {0,1,0}, {0,1,1},
        {1,-1,-1}, {1,-1,0}, {1,-1,1}, {1,0,-1}, {1,0,0}, {1,0,1},
        {1,1,-1}, {1,1,0}, {1,1,1},
    };

#define EMIT_HALF                                                          \
    if (count < cap) { oi[count] = a; oj[count] = b; }                     \
    count++;                                                               \
    within += r2 < count_rc2;

    for (int64_t a = 0; a < n; a++) {
        int64_t row = count;
        offsets[a] = row;
        double ax = pos[3*a], ay = pos[3*a+1], az = pos[3*a+2];
        int64_t cx = coords[3*a], cy = coords[3*a+1], cz = coords[3*a+2];
        /* Later members of the anchor's own cell (triangular half). */
        SCAN_RANGE(slot[a] + 1, starts[flat[a] + 1], EMIT_HALF)
        /* Full population of the 13 forward neighbor cells. */
        for (int s = 0; s < 13; s++) {
            int64_t nx = cx + off[s][0];
            int64_t ny = cy + off[s][1];
            int64_t nz = cz + off[s][2];
            if (px) nx = wrap_mod(nx, n_cells[0]);
            else if (nx < 0 || nx >= n_cells[0]) continue;
            if (py) ny = wrap_mod(ny, n_cells[1]);
            else if (ny < 0 || ny >= n_cells[1]) continue;
            if (pz) nz = wrap_mod(nz, n_cells[2]);
            else if (nz < 0 || nz >= n_cells[2]) continue;
            int64_t c = nx * sx + ny * sy + nz;
            SCAN_RANGE(starts[c], starts[c+1], EMIT_HALF)
        }
        /* Rows that overflowed `cap` are rebuilt by the caller's retry. */
        if (count <= cap) {
            for (int64_t k = row + 1; k < count; k++) {
                int64_t b = oj[k], l = k;
                while (l > row && oj[l-1] > b) { oj[l] = oj[l-1]; l--; }
                oj[l] = b;
            }
        }
    }
#undef EMIT_HALF
    offsets[n] = count;
    *within_out = within;
done:
    cell_bins_free(&g);
    return count;
}

/* ------------------------------------------------------------------ */
/* Directed rows of a subdomain's local atom set, for the parallel     */
/* engine's owner-computes pass: what subdomain_directed_pairs in      */
/* repro.md.neighbor gets by mirroring the half list and lexsorting    */
/* 2 M rows, emitted directly.  Anchors [0, anchor_limit) are walked   */
/* in index order over the full stencil (r2 is symmetric under the     */
/* direction swap, so (a, b) and (b, a) pass the same test the half    */
/* list applied once), each anchor's partners land contiguously and    */
/* one insertion sort of that row by sort_key[b] — the global atom     */
/* ids — leaves the output in np.lexsort((sort_key[j], i)) order.      */
/* The bins are rc / 2 wide and the stencil reaches two cells: the     */
/* same pairs pass the cutoff test, out of 125 / 216 of the candidates */
/* a 27-cell stencil of rc-wide bins offers.                           */
/* within[a] counts anchor a's partners with r2 < count_rc2 (its       */
/* Table-2 neighbor count when count_rc2 is the force cutoff's).       */
/*                                                                     */
/* Open boxes only (the ghost images realize periodicity): any         */
/* periodic dim returns -2, which lets a stencil column's five z       */
/* cells be scanned as one contiguous slot range.  Two partners of one */
/* anchor sharing a sort key (two images of one atom, reachable only   */
/* at rc = L/2) also return -2: lexsort orders such a tie by position  */
/* in the mirrored list, which this build never forms.  Capacity       */
/* protocol and the other negative returns as cell_csr_f64.            */
/* ------------------------------------------------------------------ */

int64_t cell_rows_f64(const double *pos, int64_t n, const double *lengths,
                      const double *origin, const uint8_t *periodic, double rc,
                      double count_rc2, const int64_t *sort_key,
                      int64_t anchor_limit, int64_t *oi, int64_t *oj,
                      int64_t cap, int64_t *within) {
    if (periodic[0] || periodic[1] || periodic[2]) return -2;
    cell_bins g;
    int64_t count = cell_bins_build(&g, pos, n, lengths, origin, periodic,
                                    0.5 * rc);
    /* Sort keys of the row being built (a row holds each atom once). */
    int64_t *keys = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (count == 0 && !keys) count = -1;
    if (count < 0) goto done;
    const int64_t *n_cells = g.n_cells, *coords = g.coords;
    const int64_t *starts = g.starts, *order = g.order;
    int64_t sx = g.sx, sy = g.sy;
    IMAGE_LOCALS

#define EMIT_ROW                                                           \
    if (b != a) {                                                          \
        if (count < cap) { oi[count] = a; oj[count] = b; }                 \
        keys[count - row] = sort_key[b];                                   \
        count++;                                                           \
        inside += r2 < count_rc2;                                          \
    }

    for (int64_t a = 0; a < anchor_limit; a++) {
        int64_t row = count, inside = 0;
        double ax = pos[3*a], ay = pos[3*a+1], az = pos[3*a+2];
        int64_t cx = coords[3*a], cy = coords[3*a+1], cz = coords[3*a+2];
        int64_t z0 = cz > 1 ? cz - 2 : 0;
        int64_t z1 = cz + 2 < n_cells[2] ? cz + 2 : n_cells[2] - 1;
        for (int64_t nx = cx - 2; nx <= cx + 2; nx++) {
            if (nx < 0 || nx >= n_cells[0]) continue;
            for (int64_t ny = cy - 2; ny <= cy + 2; ny++) {
                if (ny < 0 || ny >= n_cells[1]) continue;
                int64_t c = nx * sx + ny * sy;
                SCAN_RANGE(starts[c + z0], starts[c + z1 + 1], EMIT_ROW)
            }
        }
        within[a] = inside;
        if (count <= cap) {
            for (int64_t k = 1; k < count - row; k++) {
                int64_t key = keys[k], b = oj[row + k], l = k;
                while (l > 0 && keys[l-1] > key) {
                    keys[l] = keys[l-1]; oj[row + l] = oj[row + l - 1]; l--;
                }
                if (l > 0 && keys[l-1] == key) { count = -2; goto done; }
                keys[l] = key; oj[row + l] = b;
            }
        }
    }
#undef EMIT_ROW
done:
    free(keys);
    cell_bins_free(&g);
    return count;
}
#undef SCAN_RANGE
#undef IMAGE_LOCALS

/* ------------------------------------------------------------------ */
/* Largest squared displacement since the reference positions, for     */
/* the neighbor list's per-step skin check.  Replicates, per atom,     */
/* Box.wrap (rel - floor(rel / L) * L on periodic dims, + origin),     */
/* the subtraction from the reference, Box.minimum_image and einsum's  */
/* f64 r2 order, so the returned maximum is bitwise np.max of the      */
/* numpy expression — including NaN, which np.max propagates.  The     */
/* libm calls are skipped where they provably return 0 (an atom still  */
/* inside the box, a displacement under L/4) and the update they feed  */
/* is `x - 0.0`: the common case, and most of this kernel's time.      */
/* ------------------------------------------------------------------ */

double max_disp_sq_f64(const double *pos, const double *ref, int64_t n,
                       const double *lengths, const double *origin,
                       const uint8_t *periodic) {
    double best = 0.0;
    int saw_nan = 0;
    for (int64_t a = 0; a < n; a++) {
        double d[3];
        for (int k = 0; k < 3; k++) {
            double L = lengths[k];
            double rel = pos[3*a+k] - origin[k];
            if (periodic[k] && !(rel >= 0.0 && rel < L))
                rel -= floor(rel / L) * L;
            double dx = (rel + origin[k]) - ref[3*a+k];
            if (periodic[k] && !(fabs(dx) < 0.25 * L))
                dx -= rint(dx / L) * L;
            d[k] = dx;
        }
        double r2 = (d[0]*d[0] + d[2]*d[2]) + d[1]*d[1];
        if (r2 > best) best = r2;
        saw_nan |= r2 != r2;
    }
    return saw_nan ? NAN : best;
}
"""

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)

#: Per value dtype: its C type, its ctypes scalar, the body of ``F(x)``
#: and the association ``np.einsum("ij,ij->i")`` sums three squares in.
_C_TYPES = {
    F64: ("double", ctypes.c_double, "x", "((xx + zz) + yy)"),
    F32: ("float", ctypes.c_float, "x##f", "((xx + yy) + zz)"),
}

_POLICIES = [policy_for(mode) for mode in PRECISIONS]

#: Instance lists: the distinct ``(VAL, ACC)`` dtype pairs the policies
#: ask of a kernel family, each with a policy that runs it (the one the
#: smoke test checks it under).  Per-pair values arrive in the compute
#: dtype and add up in the accumulate dtype; geometry is storage-typed.
ACCUMULATE = {(p.compute_dtype, p.accumulate_dtype): p for p in _POLICIES}
GEOMETRY = {(p.storage_dtype, p.storage_dtype): p for p in _POLICIES}
DOUBLE = {(DOUBLE_POLICY.storage_dtype, DOUBLE_POLICY.storage_dtype): DOUBLE_POLICY}

#: The instance table: ``stem -> (instances, restype, signature)``, one
#: row per C body.  A signature names each argument by one letter: an
#: array by its element type — ``v`` VAL, ``a`` ACC, ``i`` int64, ``u``
#: uint8 — in upper case when the kernel writes it; ``n`` is an int64
#: scalar, ``s`` a VAL scalar and ``N`` an int64 returned by pointer.
KERNELS = {
    "scatter1": (ACCUMULATE, None, "A i v n"),
    "scatter3": (ACCUMULATE, None, "A i v n"),
    "acc_scaled": (ACCUMULATE, None, "A i i n v v"),
    "acc_pair": (ACCUMULATE, None, "A i i n v"),
    "pair_geom": (GEOMETRY, ctypes.c_int64, "v i i n v u s I I V V"),
    "lj_half": (DOUBLE, ctypes.c_int64, "v i i n v u s i n v v v A A A"),
    "lj_rows": (DOUBLE, ctypes.c_int64, "v i i i i n v u s i n v v v A A A"),
    "tersoff_full": (DOUBLE, ctypes.c_int64, "v n i i v u s v n V I A A"),
    "cell_csr": (DOUBLE, ctypes.c_int64, "v n v v u s s I I n I N"),
    "cell_rows": (DOUBLE, ctypes.c_int64, "v n v v u s s i n I I n I"),
    "max_disp_sq": (DOUBLE, ctypes.c_double, "v v n v v u"),
}


def symbol(stem: str, val: np.dtype, acc: np.dtype) -> str:
    """Exported name of one instance; the accumulator is named only
    when it is not the value type (``scatter1_f32f64``)."""
    accumulator = "" if acc == val else f"f{8 * acc.itemsize}"
    return f"{stem}_f{8 * val.itemsize}{accumulator}"


def _instantiate(template: str, val: np.dtype, acc: np.dtype) -> str:
    """``template`` between the macro definitions of one instance."""
    ctype, _, suffixed, r2 = _C_TYPES[val]
    macros = {
        "VAL": ctype,
        "ACC": _C_TYPES[acc][0],
        "FN(stem)": symbol("stem##", val, acc),
        "F(x)": suffixed,
        "R2(xx, yy, zz)": r2,
    }
    define = "".join(f"#define {name} {body}\n" for name, body in macros.items())
    undef = "".join(f"#undef {name.partition('(')[0]}\n" for name in macros)
    return define + template + undef


#: The unit that is compiled, and whose hash keys the build cache: each
#: template once per instance (``min_image`` ahead of its f64 callers).
_SOURCE = _PRELUDE + "".join(
    _instantiate(template, val, acc)
    for instances, template in (
        (ACCUMULATE, _ACCUMULATE_C),
        (GEOMETRY, _GEOMETRY_C),
        (DOUBLE, _DOUBLE_C),
    )
    for val, acc in instances
)


def _argtypes(signature: str, val: np.dtype, acc: np.dtype) -> list:
    """ctypes ``argtypes`` of one instance from its row's signature."""
    scalars = {
        "n": ctypes.c_int64,
        "s": _C_TYPES[val][1],
        "N": ctypes.POINTER(ctypes.c_int64),
    }
    elements = {"v": val, "a": acc, "i": np.int64, "u": np.uint8}
    return [
        scalars.get(letter) or _ptr(elements[letter.lower()], letter.isupper())
        for letter in signature.split()
    ]


def _ptr(dtype, writeable=False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return ndpointer(dtype=dtype, flags=flags)


def _find_compiler() -> str | None:
    """``$CC`` when set — and then only it, so a bad ``$CC`` is reported
    instead of silently replaced — else the first of cc/gcc/clang."""
    chosen = os.environ.get("CC")
    for cc in (chosen,) if chosen else ("cc", "gcc", "clang"):
        if shutil.which(cc):
            return cc
    return None


def _cache_dir() -> Path:
    """First writable cache location: env override, in-tree, tempdir."""
    override = os.environ.get(CACHE_ENV_VAR)
    candidates = (
        [Path(override)]
        if override
        else [
            Path(__file__).resolve().parent / ".cc_cache",
            Path(tempfile.gettempdir()) / f"repro-cc-cache-{os.getuid()}",
        ]
    )
    last_error: Exception | None = None
    for cand in candidates:
        try:
            cand.mkdir(parents=True, exist_ok=True)
            if os.access(cand, os.W_OK):
                return cand
        except OSError as exc:  # pragma: no cover - depends on fs perms
            last_error = exc
    raise RuntimeError(f"no writable compile-cache directory: {last_error}")


def _build_library() -> tuple[ctypes.CDLL, str]:
    """Compile (or reuse) the shared object; returns (lib, compiler id)."""
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found on PATH ($CC if set, else cc/gcc/clang)"
        )
    key_material = "\x00".join([_SOURCE, cc, *_CFLAGS])
    key = hashlib.sha256(key_material.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{key}.so"
    if not so_path.exists():
        # Build under a unique name, publish with an atomic rename:
        # concurrent processes either see the finished library or none.
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            src = Path(workdir) / "kernels.c"
            src.write_text(_SOURCE)
            tmp_so = Path(workdir) / "kernels.so"
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp_so), str(src), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed (exit {proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, so_path)
    return ctypes.CDLL(str(so_path)), cc


class CcProvider:
    """ctypes bindings over the cached shared object.

    All entry points require C-contiguous arrays of the exact dtypes in
    their signatures; :class:`~repro.md.kernels.compiled.CompiledBackend`
    guarantees that before dispatching here.
    """

    kind = "cc"

    #: Doubles of row scratch ``tersoff_full`` carves up per slot.
    TERSOFF_SLOT_DOUBLES = 16

    def __init__(self) -> None:
        lib, cc = _build_library()
        self._lib = lib
        try:
            banner = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=10
            ).stdout.splitlines()
            self.version = banner[0].strip() if banner else cc
        except Exception:  # pragma: no cover - cosmetic only
            self.version = cc
        #: The table, resolved: ``(stem, VAL, ACC) -> bound function``.
        self.bound = {}
        for stem, (instances, restype, signature) in KERNELS.items():
            for val, acc in instances:
                fn = getattr(lib, symbol(stem, val, acc))
                fn.restype = restype
                fn.argtypes = _argtypes(signature, val, acc)
                self.bound[stem, val, acc] = fn

    # -- kernel entry points, dispatched on (values, out) dtypes --------
    def supports(self, out, values) -> bool:
        """Whether the accumulate kernels have a ``values -> out`` instance."""
        return (values.dtype, out.dtype) in ACCUMULATE

    def scatter1(self, out, idx, v) -> None:
        self.bound["scatter1", v.dtype, out.dtype](out, idx, v, len(idx))

    def scatter3(self, out, idx, v) -> None:
        self.bound["scatter3", v.dtype, out.dtype](out, idx, v, len(idx))

    def acc_scaled(self, forces, i, j, dr, f_over_r) -> None:
        self.bound["acc_scaled", f_over_r.dtype, forces.dtype](
            forces, i, j, len(i), dr, f_over_r
        )

    def acc_pair(self, forces, i, j, fv) -> None:
        self.bound["acc_pair", fv.dtype, forces.dtype](forces, i, j, len(i), fv)

    def pair_geom(self, pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
        fn = self.bound["pair_geom", pos.dtype, pos.dtype]
        # The cutoff compare runs in the position dtype: numpy (NEP 50)
        # casts the weak python-float rc^2 down to float32 for float32
        # operands, so the C side receives it pre-cast via c_float.
        return fn(pos, pi, pj, len(pi), lengths, periodic, rc2, oi, oj, odr, orr)

    def lj_half(
        self, pos, pi, pj, lengths, periodic, rc2, types, eps, sigma, shift,
        forces, oe, ov,
    ):
        """Fused lj/cut pass over a half list; returns the survivor count.

        ``eps``/``sigma``/``shift`` are the ``(nt, nt)`` float64 tables;
        ``types`` is only read when ``nt > 1`` and must then hold values
        in ``[0, nt)``.
        """
        return self.bound["lj_half", F64, F64](
            pos, pi, pj, len(pi), lengths, periodic, rc2, types,
            len(eps), eps, sigma, shift, forces, oe, ov,
        )

    def lj_rows(
        self, pos, di, dj, gi, gj, lengths, periodic, rc2, types, eps, sigma,
        shift, forces, energy, virial,
    ):
        """Fused lj/cut pass over directed rows (i side only)."""
        return self.bound["lj_rows", F64, F64](
            pos, di, dj, gi, gj, len(di), lengths, periodic, rc2, types,
            len(eps), eps, sigma, shift, forces, energy, virial,
        )

    def tersoff_full(
        self, pos, offsets, pj, lengths, periodic, rc2, params, scratch, atom,
        forces, totals,
    ):
        """Fused Tersoff pass over a full CSR list; returns the bond count
        and leaves ``(energy, virial)`` in ``totals``.

        ``params`` is the 14 :class:`TersoffParameters` fields in
        declaration order (``m`` must be 1 or 3); ``atom`` holds one
        slot per entry of the longest stored row and ``scratch``
        :attr:`TERSOFF_SLOT_DOUBLES` times as many doubles.
        """
        return self.bound["tersoff_full", F64, F64](
            pos, len(pos), offsets, pj, lengths, periodic, rc2, params,
            len(atom), scratch, atom, forces, totals,
        )

    def cell_csr(
        self, pos, lengths, origin, periodic, rc, count_rc2, oi, oj, offsets
    ):
        """``(count, within)``; see the C source for the status codes."""
        within = ctypes.c_int64(0)
        count = self.bound["cell_csr", F64, F64](
            pos, len(pos), lengths, origin, periodic, rc, count_rc2,
            oi, oj, len(oi), offsets, ctypes.byref(within),
        )
        return count, within.value

    def cell_rows(
        self, pos, lengths, origin, periodic, rc, count_rc2, sort_key,
        oi, oj, within,
    ):
        """Row count of the directed rows headed by atoms
        ``[0, len(within))`` (at most ``len(pos)``), whose per-anchor
        within-cutoff counts land in ``within``; ``sort_key`` holds one
        key per atom.  See the C source for the status codes."""
        return self.bound["cell_rows", F64, F64](
            pos, len(pos), lengths, origin, periodic, rc, count_rc2,
            sort_key, len(within), oi, oj, len(oi), within,
        )

    def max_disp_sq(self, pos, ref, lengths, origin, periodic) -> float:
        return self.bound["max_disp_sq", F64, F64](
            pos, ref, len(pos), lengths, origin, periodic
        )
