"""The native provider of the ``compiled`` kernel backend.

The ``compiled`` backend delivers native-code speed anywhere a C
compiler is on ``PATH``: this module carries a single self-contained C
translation unit implementing the Pair/Neigh hot loops, builds it once
into a cached shared object with strict IEEE flags, and binds it via
the stdlib ``ctypes`` — no third-party build dependency at all.

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
  zero; mixed-precision variants widen each float32 term to float64
  before adding, exactly as bincount's float64 accumulator does.
* Compilation uses ``-fno-fast-math -ffp-contract=off`` so the
  compiler can neither reassociate sums nor contract multiply-adds
  into FMAs — either would silently break the bitwise contract.

The build cache defaults to a ``.cc_cache`` directory next to this
file (overridable via ``$REPRO_COMPILED_CACHE``), keyed by a hash of
the source and flags, and populated through an atomic rename so
concurrent worker processes never observe a half-written library.
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

__all__ = ["CcProvider", "CACHE_ENV_VAR"]

#: Environment override for the shared-object build cache directory.
CACHE_ENV_VAR = "REPRO_COMPILED_CACHE"

#: IEEE-strict flags: no value-changing optimizations, no FMA
#: contraction.  Reordering either sum would break bitwise parity with
#: the numpy backends.
_CFLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* Scatter primitives: out[idx[k]] += v[k] in input order.             */
/* Input-order serial accumulation is bitwise-identical to             */
/* np.bincount whenever the destination starts at zero; the mixed      */
/* (f32 values -> f64 out) variants widen each term first, matching    */
/* bincount's always-float64 accumulator.                              */
/* ------------------------------------------------------------------ */

void scatter1_f64(double *out, const int64_t *idx, const double *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += v[k];
}

void scatter1_f32(float *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += v[k];
}

void scatter1_f32f64(double *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) out[idx[k]] += (double)v[k];
}

void scatter3_f64(double *out, const int64_t *idx, const double *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += v[3*k];
        out[3*a+1] += v[3*k+1];
        out[3*a+2] += v[3*k+2];
    }
}

void scatter3_f32(float *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += v[3*k];
        out[3*a+1] += v[3*k+1];
        out[3*a+2] += v[3*k+2];
    }
}

void scatter3_f32f64(double *out, const int64_t *idx, const float *v, int64_t m) {
    for (int64_t k = 0; k < m; k++) {
        int64_t a = idx[k];
        out[3*a]   += (double)v[3*k];
        out[3*a+1] += (double)v[3*k+1];
        out[3*a+2] += (double)v[3*k+2];
    }
}

/* ------------------------------------------------------------------ */
/* Pair-force accumulation.                                            */
/* Fused half-list scatter: one pass over the CSR-ordered pair list;   */
/* the i side is segment-accumulated in registers while consecutive    */
/* rows share the same i (the list's native layout), the j side is     */
/* scattered inline.  Correct for any row order — unsorted i just      */
/* degenerates to length-1 segments.                                   */
/* ------------------------------------------------------------------ */

void acc_scaled_f64(double *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const double *dr, const double *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            double f = f_over_r[k];
            double wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_scaled_f32(float *forces, const int64_t *pi, const int64_t *pj,
                    int64_t m, const float *dr, const float *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        float sx = 0.0f, sy = 0.0f, sz = 0.0f;
        do {
            float f = f_over_r[k];
            float wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

/* MIXED policy: float32 per-pair products, float64 accumulation. */
void acc_scaled_f32f64(double *forces, const int64_t *pi, const int64_t *pj,
                       int64_t m, const float *dr, const float *f_over_r) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            float f = f_over_r[k];
            float wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += (double)wx; sy += (double)wy; sz += (double)wz;
            int64_t b = pj[k];
            forces[3*b] -= (double)wx;
            forces[3*b+1] -= (double)wy;
            forces[3*b+2] -= (double)wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f64(double *forces, const int64_t *pi, const int64_t *pj,
                  int64_t m, const double *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            double wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f32(float *forces, const int64_t *pi, const int64_t *pj,
                  int64_t m, const float *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        float sx = 0.0f, sy = 0.0f, sz = 0.0f;
        do {
            float wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += wx; sy += wy; sz += wz;
            int64_t b = pj[k];
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

void acc_pair_f32f64(double *forces, const int64_t *pi, const int64_t *pj,
                     int64_t m, const float *fv) {
    int64_t k = 0;
    while (k < m) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            float wx = fv[3*k], wy = fv[3*k+1], wz = fv[3*k+2];
            sx += (double)wx; sy += (double)wy; sz += (double)wz;
            int64_t b = pj[k];
            forces[3*b] -= (double)wx;
            forces[3*b+1] -= (double)wy;
            forces[3*b+2] -= (double)wz;
            k++;
        } while (k < m && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

/* ------------------------------------------------------------------ */
/* Minimum image of one displacement component on a periodic axis,     */
/* with h = 0.49 * L.  For |d| <= h the quotient d / L rounds to +-0,  */
/* so d - rint(d / L) * L is d itself (+0.0 for either zero, which is  */
/* what `d + 0.0` gives): the divide and the libm call are skipped for */
/* every pair that does not straddle the box.  NaN fails the compare   */
/* and takes the full expression.                                      */
/* ------------------------------------------------------------------ */

static inline double min_image_f64(double d, double L, double h) {
    return fabs(d) <= h ? d + 0.0 : d - rint(d / L) * L;
}

static inline float min_image_f32(float d, float L, float h) {
    return fabsf(d) <= h ? d + 0.0f : d - rintf(d / L) * L;
}

/* ------------------------------------------------------------------ */
/* Pair geometry over the stored list: gather, minimum image, cutoff   */
/* filter.  Outputs are compressed in place; returns the survivor      */
/* count.  r2 replicates einsum's per-dtype summation order.           */
/* ------------------------------------------------------------------ */

int64_t pair_geom_f64(const double *pos, const int64_t *pi, const int64_t *pj,
                      int64_t m, const double *lengths, const uint8_t *periodic,
                      double rc2, int64_t *oi, int64_t *oj,
                      double *odr, double *orr) {
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    double hx = 0.49 * Lx, hy = 0.49 * Ly, hz = 0.49 * Lz;
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    int64_t c = 0;
    for (int64_t k = 0; k < m; k++) {
        const double *a = pos + 3*pi[k];
        const double *b = pos + 3*pj[k];
        double dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
        if (px) dx = min_image_f64(dx, Lx, hx);
        if (py) dy = min_image_f64(dy, Ly, hy);
        if (pz) dz = min_image_f64(dz, Lz, hz);
        double r2 = (dx*dx + dz*dz) + dy*dy;   /* einsum f64 order */
        if (r2 < rc2) {
            oi[c] = pi[k]; oj[c] = pj[k];
            odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
            orr[c] = sqrt(r2);
            c++;
        }
    }
    return c;
}

int64_t pair_geom_f32(const float *pos, const int64_t *pi, const int64_t *pj,
                      int64_t m, const float *lengths, const uint8_t *periodic,
                      float rc2, int64_t *oi, int64_t *oj,
                      float *odr, float *orr) {
    float Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    float hx = 0.49f * Lx, hy = 0.49f * Ly, hz = 0.49f * Lz;
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    int64_t c = 0;
    for (int64_t k = 0; k < m; k++) {
        const float *a = pos + 3*pi[k];
        const float *b = pos + 3*pj[k];
        float dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
        if (px) dx = min_image_f32(dx, Lx, hx);
        if (py) dy = min_image_f32(dy, Ly, hy);
        if (pz) dz = min_image_f32(dz, Lz, hz);
        float r2 = (dx*dx + dy*dy) + dz*dz;    /* einsum f32 order */
        if (r2 < rc2) {
            oi[c] = pi[k]; oj[c] = pj[k];
            odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
            orr[c] = sqrtf(r2);
            c++;
        }
    }
    return c;
}

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
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    double hx = 0.49 * Lx, hy = 0.49 * Ly, hz = 0.49 * Lz;
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t c = 0, a = -1;
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = pi[k], j = pj[k];
        const double *p = pos + 3*i;
        const double *q = pos + 3*j;
        double dx = p[0] - q[0], dy = p[1] - q[1], dz = p[2] - q[2];
        if (px) dx = min_image_f64(dx, Lx, hx);
        if (py) dy = min_image_f64(dy, Ly, hy);
        if (pz) dz = min_image_f64(dz, Lz, hz);
        double r2 = (dx*dx + dz*dz) + dy*dy;       /* einsum f64 order */
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
    double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    double hx = 0.49 * Lx, hy = 0.49 * Ly, hz = 0.49 * Lz;
    int px = periodic[0], py = periodic[1], pz = periodic[2];
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t c = 0, a = -1;
    double sx = 0.0, sy = 0.0, sz = 0.0, se = 0.0, sv = 0.0;
    for (int64_t k = 0; k < m; k++) {
        const double *p = pos + 3*gi[k];
        const double *q = pos + 3*gj[k];
        double dx = p[0] - q[0], dy = p[1] - q[1], dz = p[2] - q[2];
        if (px) dx = min_image_f64(dx, Lx, hx);
        if (py) dy = min_image_f64(dy, Ly, hy);
        if (pz) dz = min_image_f64(dz, Lz, hz);
        double r2 = (dx*dx + dz*dz) + dy*dy;       /* einsum f64 order */
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
/* binned).  cell_bins_free releases whatever was allocated.           */
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
    double cell_size[3];
    g->coords = g->flat = g->starts = g->fill = g->order = g->slot = NULL;
    for (int d = 0; d < 3; d++) {
        int64_t nc = (int64_t)floor(lengths[d] / rc);
        g->n_cells[d] = nc < 1 ? 1 : nc;
        cell_size[d] = lengths[d] / (double)g->n_cells[d];
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


def _ptr(dtype, writeable=False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return ndpointer(dtype=dtype, flags=flags)


class CcProvider:
    """ctypes bindings over the cached shared object.

    All entry points require C-contiguous arrays of the exact dtypes in
    their signatures; :class:`~repro.md.kernels.compiled.CompiledBackend`
    guarantees that before dispatching here.
    """

    kind = "cc"

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
        i64, f64, f32, u8 = np.int64, np.float64, np.float32, np.uint8
        c_i64, c_f64, c_f32 = ctypes.c_int64, ctypes.c_double, ctypes.c_float

        def bind(name, restype, argtypes):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            return fn

        self._scatter1 = {
            (f64, f64): bind(
                "scatter1_f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f64), c_i64]
            ),
            (f32, f32): bind(
                "scatter1_f32", None, [_ptr(f32, True), _ptr(i64), _ptr(f32), c_i64]
            ),
            (f64, f32): bind(
                "scatter1_f32f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f32), c_i64]
            ),
        }
        self._scatter3 = {
            (f64, f64): bind(
                "scatter3_f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f64), c_i64]
            ),
            (f32, f32): bind(
                "scatter3_f32", None, [_ptr(f32, True), _ptr(i64), _ptr(f32), c_i64]
            ),
            (f64, f32): bind(
                "scatter3_f32f64", None, [_ptr(f64, True), _ptr(i64), _ptr(f32), c_i64]
            ),
        }
        acc_args = lambda ft, vt: [  # noqa: E731 - local signature helper
            _ptr(ft, True), _ptr(i64), _ptr(i64), c_i64, _ptr(vt), _ptr(vt)
        ]
        self._acc_scaled = {
            (f64, f64): bind("acc_scaled_f64", None, acc_args(f64, f64)),
            (f32, f32): bind("acc_scaled_f32", None, acc_args(f32, f32)),
            (f64, f32): bind("acc_scaled_f32f64", None, acc_args(f64, f32)),
        }
        pair_args = lambda ft, vt: [  # noqa: E731
            _ptr(ft, True), _ptr(i64), _ptr(i64), c_i64, _ptr(vt)
        ]
        self._acc_pair = {
            (f64, f64): bind("acc_pair_f64", None, pair_args(f64, f64)),
            (f32, f32): bind("acc_pair_f32", None, pair_args(f32, f32)),
            (f64, f32): bind("acc_pair_f32f64", None, pair_args(f64, f32)),
        }
        geom_args = lambda ft, c_f: [  # noqa: E731
            _ptr(ft), _ptr(i64), _ptr(i64), c_i64, _ptr(ft), _ptr(u8), c_f,
            _ptr(i64, True), _ptr(i64, True), _ptr(ft, True), _ptr(ft, True),
        ]
        self._pair_geom = {
            f64: bind("pair_geom_f64", c_i64, geom_args(f64, c_f64)),
            f32: bind("pair_geom_f32", c_i64, geom_args(f32, c_f32)),
        }
        lj_args = [
            _ptr(f64), _ptr(u8), c_f64, _ptr(i64), c_i64,
            _ptr(f64), _ptr(f64), _ptr(f64),
            _ptr(f64, True), _ptr(f64, True), _ptr(f64, True),
        ]
        self._lj_half = bind(
            "lj_half_f64",
            c_i64,
            [_ptr(f64), _ptr(i64), _ptr(i64), c_i64, *lj_args],
        )
        self._lj_rows = bind(
            "lj_rows_f64",
            c_i64,
            [_ptr(f64), *[_ptr(i64)] * 4, c_i64, *lj_args],
        )
        self._cell_csr = bind(
            "cell_csr_f64",
            c_i64,
            [
                _ptr(f64), c_i64, _ptr(f64), _ptr(f64), _ptr(u8), c_f64, c_f64,
                _ptr(i64, True), _ptr(i64, True), c_i64, _ptr(i64, True),
                ctypes.POINTER(c_i64),
            ],
        )
        self._cell_rows = bind(
            "cell_rows_f64",
            c_i64,
            [
                _ptr(f64), c_i64, _ptr(f64), _ptr(f64), _ptr(u8), c_f64, c_f64,
                _ptr(i64), c_i64, _ptr(i64, True), _ptr(i64, True), c_i64,
                _ptr(i64, True),
            ],
        )
        self._max_disp_sq = bind(
            "max_disp_sq_f64",
            c_f64,
            [_ptr(f64), _ptr(f64), c_i64, _ptr(f64), _ptr(f64), _ptr(u8)],
        )

    # -- kernel entry points, dispatched on (out, values) dtypes --------
    @staticmethod
    def _key(out, values):
        return (out.dtype.type, values.dtype.type)

    def supports(self, out, values) -> bool:
        return self._key(out, values) in self._scatter1

    def scatter1(self, out, idx, v) -> None:
        self._scatter1[self._key(out, v)](out, idx, v, len(idx))

    def scatter3(self, out, idx, v) -> None:
        self._scatter3[self._key(out, v)](out, idx, v, len(idx))

    def acc_scaled(self, forces, i, j, dr, f_over_r) -> None:
        self._acc_scaled[self._key(forces, f_over_r)](
            forces, i, j, len(i), dr, f_over_r
        )

    def acc_pair(self, forces, i, j, fv) -> None:
        self._acc_pair[self._key(forces, fv)](forces, i, j, len(i), fv)

    def pair_geom(self, pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
        fn = self._pair_geom[pos.dtype.type]
        # The cutoff compare runs in the position dtype: numpy (NEP 50)
        # casts the weak python-float rc^2 down to float32 for float32
        # operands, so the C side receives it pre-cast via c_float.
        return int(fn(pos, pi, pj, len(pi), lengths, periodic, rc2, oi, oj, odr, orr))

    def lj_half(
        self, pos, pi, pj, lengths, periodic, rc2, types, eps, sigma, shift,
        forces, oe, ov,
    ):
        """Fused lj/cut pass over a half list; returns the survivor count.

        ``eps``/``sigma``/``shift`` are the ``(nt, nt)`` float64 tables;
        ``types`` is only read when ``nt > 1`` and must then hold values
        in ``[0, nt)``.
        """
        return int(
            self._lj_half(
                pos, pi, pj, len(pi), lengths, periodic, rc2, types,
                len(eps), eps, sigma, shift, forces, oe, ov,
            )
        )

    def lj_rows(
        self, pos, di, dj, gi, gj, lengths, periodic, rc2, types, eps, sigma,
        shift, forces, energy, virial,
    ):
        """Fused lj/cut pass over directed rows (i side only)."""
        return int(
            self._lj_rows(
                pos, di, dj, gi, gj, len(di), lengths, periodic, rc2, types,
                len(eps), eps, sigma, shift, forces, energy, virial,
            )
        )

    def cell_csr(
        self, pos, lengths, origin, periodic, rc, count_rc2, oi, oj, offsets
    ):
        """``(count, within)``; see the C source for the status codes."""
        within = ctypes.c_int64(0)
        count = self._cell_csr(
            pos, len(pos), lengths, origin, periodic, rc, count_rc2,
            oi, oj, len(oi), offsets, ctypes.byref(within),
        )
        return int(count), int(within.value)

    def cell_rows(
        self, pos, lengths, origin, periodic, rc, count_rc2, sort_key,
        oi, oj, within,
    ):
        """Row count of the directed rows headed by atoms
        ``[0, len(within))`` (at most ``len(pos)``), whose per-anchor
        within-cutoff counts land in ``within``; ``sort_key`` holds one
        key per atom.  See the C source for the status codes."""
        return int(
            self._cell_rows(
                pos, len(pos), lengths, origin, periodic, rc, count_rc2,
                sort_key, len(within), oi, oj, len(oi), within,
            )
        )

    def max_disp_sq(self, pos, ref, lengths, origin, periodic) -> float:
        return float(
            self._max_disp_sq(pos, ref, len(pos), lengths, origin, periodic)
        )
