"""The native provider of the ``compiled`` kernel backend.

The ``compiled`` backend delivers native-code speed anywhere a C
compiler is on ``PATH``: this module carries a single self-contained C
translation unit implementing the Pair/Neigh hot loops and PPPM's
particle-mesh pass, builds it once into a cached shared object with
strict IEEE flags, and binds it via the stdlib ``ctypes`` — no
third-party build dependency at all.

A native kernel is one C body plus one row of :data:`KERNELS`: a body
that exists at more than one precision is written once, over a value
type ``VAL`` and an accumulator type ``ACC``, and instantiated for the
dtype pairs the policies of :mod:`repro.md.precision` define; binding
and the provider's entry — dtype-keyed dispatch, the lengths filled in,
the decline of any argument the signature refuses — follow from the
row's signature, and the provider smoke
test checks every instance against the row's one declaration in
``compiled._SMOKE_CASES``, which reads its dtypes from the policy.

Numerical contract (pinned by the provider smoke test and the backend
oracle tests):

* Minimum image uses the exact ``dr -= rint(dr / L) * L`` sequence of
  ``Box.minimum_image`` (round-half-even ``rint``), per periodic dim.
  The periodic link-cell build ``cell_csr`` alone uses cheaper shifts
  — one fixed per pair of cells, else a compare-and-shift — under
  checked preconditions that make it select the same pairs (arguments
  at ``cell_bins`` and ``cell_csr`` below).
* Squared distances replicate ``np.einsum("ij,ij->i")``'s pairwise
  summation order — ``(xx + zz) + yy`` for float64 and
  ``(xx + yy) + zz`` for float32 — so the surviving pair set and the
  per-pair ``dr``/``r`` values match the numpy backends *bitwise*.
* The scatter loops accumulate in input order, which is bitwise
  identical to ``np.bincount`` when the destination rows start at
  zero; the mixed instances widen each float32 term to float64
  before adding, exactly as bincount's float64 accumulator does.
* The PPPM mesh scatter adds in the order of the numpy body's
  ``np.add.at`` calls — stencil point ``(a, b, c)`` outermost, atoms
  in input order innermost — each term rounded in ``VAL`` and widened
  to ``ACC``; the gather sums each atom's stencil from zero in the
  same point order.  That loop order, not the set of terms, is what
  makes them bitwise the body at every precision.
* Compilation uses ``-fno-fast-math -ffp-contract=off`` so the
  compiler can neither reassociate sums nor contract multiply-adds
  into FMAs — either would silently break the bitwise contract.
  ``-fno-math-errno`` changes no value: it only stops libm calls from
  promising to set ``errno``, so ``sqrt`` (correctly rounded either
  way) becomes one instruction and the loops that take it vectorize.

The unit is built for the CPU it runs on: ``-march=native`` is added
to those flags wherever the compiler names the target it resolves to
(:func:`target`), and left out — today's baseline build, flag for
flag — where it does not.  Neither flag set can change a value, so a
host-target library is bitwise the baseline one.

The build cache defaults to a ``.cc_cache`` directory next to this
file (overridable via ``$REPRO_COMPILED_CACHE``), keyed by a hash of
the generated source, the compiler's version line, the resolved target
and the flags — the target, not the flag's text, so hosts that share a
cache directory each load a library built for their own CPU — and
populated through an atomic rename so concurrent worker processes
never observe a half-written library.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.md.kernels.base import DECLINED
from repro.md.precision import DOUBLE_POLICY, PRECISIONS, policy_for

__all__ = [
    "CcProvider", "CACHE_ENV_VAR", "KERNELS", "cflags", "compiler_id", "symbol",
    "target",
]

#: Environment override for the shared-object build cache directory.
CACHE_ENV_VAR = "REPRO_COMPILED_CACHE"

#: IEEE-strict flags: no value-changing optimizations, no FMA
#: contraction.  Reordering either sum would break bitwise parity with
#: the numpy backends.
_CFLAGS = (
    "-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno", "-shared",
    "-fPIC",
)

#: The target flag added to :data:`_CFLAGS` where the compiler resolves
#: it (:func:`target`): the unit is built for the host's CPU.
_TARGET_FLAG = "-march=native"

#: Options of a ``-###`` compiler-proper line that take the next word
#: as their value (gcc's cache-size ``--param``s, clang's CPU and
#: feature list).
_TARGET_VALUED = ("--param", "-target-cpu", "-target-feature", "-tune-cpu")

_PRELUDE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

_MESH_C = r"""
/* ------------------------------------------------------------------ */
/* PPPM particle <-> mesh: the paper's make_rho and interp.            */
/*                                                                     */
/* pppm_stencil fills every atom's order-p stencil the way            */
/* pppm.mesh_stencil (bspline_weights + np.mod) builds it; dimension   */
/* d's point k of atom i is stored at [(d * p + k) * n + i]:           */
/*   node = (int64)floor(g - p/2) + 1 + k, wrapped by floor-mod;       */
/*   weight = M_p(x) at x = (VAL)((g - node) + p/2), formed in double: */
/*   numpy promotes VAL minus int64 to float64, then casts back.       */
/* M_p is the body's recurrence evaluated bottom-up: M_1 the indicator */
/* of [0, 1), M_k(y) = (y M_{k-1}(y) + (k - y) M_{k-1}(y - 1)) / (k-1) */
/* over the chain y = x, x - 1, x - 2, ... with each subtraction       */
/* rounded, as the recursive body rounds it.  Like the body it runs a  */
/* block of atoms per step of the recurrence.  Orders run 1 to         */
/* PPPM_ORDER_MAX: those kspace.error.select_grid has coefficients for. */
/* ------------------------------------------------------------------ */

#define PPPM_ORDER_MAX 7
#define PPPM_BLOCK 256

static inline void FN(pppm_stencil)(const int64_t *dims, const VAL *frac,
                                    int64_t n, int64_t p, int64_t *nodes,
                                    VAL *weights) {
    VAL y[PPPM_ORDER_MAX][PPPM_BLOCK], m[PPPM_ORDER_MAX][PPPM_BLOCK];
    double half = 0.5 * (double)p;
    for (int64_t d = 0; d < 3; d++) {
        int64_t size = dims[d];
        for (int64_t k = 0; k < p; k++) {
            for (int64_t start = 0; start < n; start += PPPM_BLOCK) {
                int64_t len = n - start < PPPM_BLOCK ? n - start : PPPM_BLOCK;
                int64_t *node_out = nodes + (d*p + k)*n + start;
                VAL *weight_out = weights + (d*p + k)*n + start;
                for (int64_t i = 0; i < len; i++) {
                    VAL g = frac[3*(start + i) + d];
                    int64_t node = (int64_t)F(floor)(g - (VAL)half) + 1 + k;
                    int64_t wrapped = node % size;
                    node_out[i] = wrapped < 0 ? wrapped + size : wrapped;
                    y[0][i] = (VAL)(((double)g - (double)node) + half);
                }
                for (int64_t j = 1; j < p; j++)
                    for (int64_t i = 0; i < len; i++) y[j][i] = y[j-1][i] - F(1.0);
                for (int64_t j = 0; j < p; j++)
                    for (int64_t i = 0; i < len; i++)
                        m[j][i] = (y[j][i] >= F(0.0) && y[j][i] < F(1.0)) ? F(1.0) : F(0.0);
                for (int64_t level = 2; level <= p; level++) {
                    VAL up = (VAL)level, down = (VAL)(level - 1);
                    for (int64_t j = 0; j + level <= p; j++)
                        for (int64_t i = 0; i < len; i++)
                            m[j][i] = (y[j][i] * m[j][i] + (up - y[j][i]) * m[j+1][i]) / down;
                }
                for (int64_t i = 0; i < len; i++) weight_out[i] = m[0][i];
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Charge spreading onto the flat (nx, ny, nz) mesh: stencil (a, b, c) */
/* outermost and atoms innermost, adding ((q wa) wb) wc widened to ACC */
/* — the sequence of the body's p^3 np.add.at calls, each of which     */
/* adds its atoms in input order.  nodes / weights are 3 p n scratch.  */
/* Returns -1, having written nothing, for an order out of range.      */
/* ------------------------------------------------------------------ */

int64_t FN(pppm_spread)(ACC *mesh, const int64_t *dims, const VAL *frac,
                        const VAL *q, int64_t n, int64_t p, int64_t *nodes,
                        VAL *weights) {
    if (p < 1 || p > PPPM_ORDER_MAX) return -1;
    FN(pppm_stencil)(dims, frac, n, p, nodes, weights);
    int64_t ny = dims[1], nz = dims[2];
    for (int64_t a = 0; a < p; a++) {
        const int64_t *na = nodes + a*n;
        const VAL *wa = weights + a*n;
        for (int64_t b = 0; b < p; b++) {
            const int64_t *nb = nodes + (p + b)*n;
            const VAL *wb = weights + (p + b)*n;
            for (int64_t c = 0; c < p; c++) {
                const int64_t *nc = nodes + (2*p + c)*n;
                const VAL *wc = weights + (2*p + c)*n;
                for (int64_t i = 0; i < n; i++) {
                    VAL w = ((q[i] * wa[i]) * wb[i]) * wc[i];
                    mesh[(na[i]*ny + nb[i])*nz + nc[i]] += (ACC)w;
                }
            }
        }
    }
    return 0;
}
"""

_GATHER_C = r"""
/* ------------------------------------------------------------------ */
/* Field interpolation: per atom, the three components summed from 0   */
/* in stencil order, each term (wa wb) wc * field — the body's         */
/* sequence of efield[:, comp] += updates.  efield is overwritten;     */
/* scratch and status as for pppm_spread.  It names no ACC, so it is   */
/* built once per value type and calls that type's pppm_stencil, which */
/* _MESH_C's (VAL, VAL) instance defines.                              */
/* ------------------------------------------------------------------ */

int64_t FN(pppm_gather)(VAL *efield, const VAL *fx, const VAL *fy,
                        const VAL *fz, const int64_t *dims, const VAL *frac,
                        int64_t n, int64_t p, int64_t *nodes, VAL *weights) {
    if (p < 1 || p > PPPM_ORDER_MAX) return -1;
    FN(pppm_stencil)(dims, frac, n, p, nodes, weights);
    int64_t ny = dims[1], nz = dims[2];
    for (int64_t i = 0; i < n; i++) {
        VAL ex = F(0.0), ey = F(0.0), ez = F(0.0);
        for (int64_t a = 0; a < p; a++) {
            int64_t na = nodes[a*n + i];
            VAL wa = weights[a*n + i];
            for (int64_t b = 0; b < p; b++) {
                int64_t row = (na*ny + nodes[(p + b)*n + i])*nz;
                VAL wab = wa * weights[(p + b)*n + i];
                for (int64_t c = 0; c < p; c++) {
                    int64_t at = row + nodes[(2*p + c)*n + i];
                    VAL w = wab * weights[(2*p + c)*n + i];
                    ex += w * fx[at]; ey += w * fy[at]; ez += w * fz[at];
                }
            }
        }
        efield[3*i] = ex; efield[3*i+1] = ey; efield[3*i+2] = ez;
    }
    return 0;
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
/* Pair geometry over the CSR rows (offsets, pj) of n atoms (atom i's  */
/* partners are pj[offsets[i] .. offsets[i+1])): gather, minimum       */
/* image, cutoff filter.  Outputs are compressed in place; returns the */
/* survivor count.  r2 replicates einsum's per-dtype summation order.  */
/* ------------------------------------------------------------------ */

int64_t FN(pair_geom)(const VAL *pos, int64_t n, const int64_t *offsets,
                      const int64_t *pj, const VAL *lengths,
                      const uint8_t *periodic, VAL rc2, int64_t *oi,
                      int64_t *oj, VAL *odr, VAL *orr) {
    BOX_LOCALS
    int64_t c = 0;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t k = offsets[i]; k < offsets[i+1]; k++) {
            PAIR_GEOMETRY(pos + 3*i, pos + 3*pj[k])
            if (r2 < rc2) {
                oi[c] = i; oj[c] = pj[k];
                odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
                orr[c] = F(sqrt)(r2);
                c++;
            }
        }
    }
    return c;
}
"""

#: Stored pairs ``lj_half`` takes per block (``LJ_BLOCK`` in the C).
LJ_BLOCK = 512

# float64-only kernels; min_image_f64 is _GEOMETRY_C's float64 instance.
_DOUBLE_C = f"#define LJ_BLOCK {LJ_BLOCK}\n" + r"""
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

#define LJ_GATHER(TI, TJ)                                                  \
    int64_t t = types[TI] * nt + types[TJ];                                \
    e4 = 4.0 * eps[t]; e24 = 24.0 * eps[t];                                \
    ss = sigma[t] * sigma[t]; sh = shift[t];

#define LJ_COEFFS(TI, TJ)                                                  \
    if (nt > 1) { LJ_GATHER(TI, TJ) }

#define LJ_TERMS(R2)                                                       \
    double inv_r2 = 1.0 / (R2);                                            \
    double sr2 = ss * inv_r2;                                              \
    double sr6 = (sr2 * sr2) * sr2;                                        \
    double sr12 = sr6 * sr6;                                               \
    double energy = e4 * (sr12 - sr6) - sh;                                \
    double f = (e24 * (2.0 * sr12 - sr6)) * inv_r2;

/* Half list, both sides (newton on), over the CSR rows (offsets, pj)  */
/* of n atoms, in blocks of LJ_BLOCK stored pairs that rows straddle.  */
/* 1: geometry as pair_geom_f64, the survivors compacted into          */
/* the block's scratch without a data-dependent branch.  2: the terms  */
/* over the survivors — the serial path feeds pair_terms r2 = r * r    */
/* with r = sqrt(einsum r2), and that is replayed — with per-pair      */
/* energy and f_over_r * r2 written compressed to oe/ov for numpy's    */
/* pairwise np.sum, whose rounding a running total here could not      */
/* reproduce.  3: the force update of acc_scaled_f64 in list order: a  */
/* run of survivors sharing one i (which may span blocks) is summed    */
/* from zero in registers and added to row i when the run ends, each   */
/* pair's j side is subtracted inline.  Returns the survivor count.    */
int64_t lj_half_f64(const double *pos, int64_t n, const int64_t *offsets,
                    const int64_t *pj, const double *lengths,
                    const uint8_t *periodic, double rc2, const int64_t *types,
                    int64_t nt, const double *eps, const double *sigma,
                    const double *shift, double *forces,
                    double *oe, double *ov) {
    BOX_LOCALS
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t bi[LJ_BLOCK], bj[LJ_BLOCK];
    double bx[LJ_BLOCK], by[LJ_BLOCK], bz[LJ_BLOCK];
    double br2[LJ_BLOCK], bf[LJ_BLOCK];
    const int64_t m = offsets[n];
    int64_t c = 0, a = -1, i = 0;
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int64_t start = 0; start < m; start += LJ_BLOCK) {
        int64_t stop = m - start < LJ_BLOCK ? m : start + LJ_BLOCK, kept = 0;
        /* Row i's pairs in this block; the next row once row i is    */
        /* done (an empty row is done at once).                        */
        for (int64_t k = start; k < stop;) {
            int64_t end = offsets[i+1] < stop ? offsets[i+1] : stop;
            for (; k < end; k++) {
                int64_t j = pj[k];
                PAIR_GEOMETRY(pos + 3*i, pos + 3*j)
                bi[kept] = i; bj[kept] = j;
                bx[kept] = dx; by[kept] = dy; bz[kept] = dz; br2[kept] = r2;
                kept += r2 < rc2;
            }
            if (k == offsets[i+1]) i++;
        }
        double *e_out = oe + c, *v_out = ov + c;
        /* Two loops: with one type the coefficients are invariant and */
        /* the loop vectorizes; gcc does not vectorize the merged one, */
        /* which makes the 32 000-atom LJ pass ~10 % slower.           */
        if (nt > 1) {
            for (int64_t k = 0; k < kept; k++) {
                LJ_GATHER(bi[k], bj[k])
                double r = sqrt(br2[k]);
                double rr = r * r;
                LJ_TERMS(rr)
                e_out[k] = energy;
                v_out[k] = f * rr;
                bf[k] = f;
            }
        } else {
            for (int64_t k = 0; k < kept; k++) {
                double r = sqrt(br2[k]);
                double rr = r * r;
                LJ_TERMS(rr)
                e_out[k] = energy;
                v_out[k] = f * rr;
                bf[k] = f;
            }
        }
        for (int64_t k = 0; k < kept; k++) {
            int64_t i = bi[k], j = bj[k];
            if (i != a) {
                if (a >= 0) {
                    forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
                }
                a = i;
                sx = 0.0; sy = 0.0; sz = 0.0;
            }
            double f = bf[k];
            double wx = f * bx[k], wy = f * by[k], wz = f * bz[k];
            sx += wx; sy += wy; sz += wz;
            forces[3*j] -= wx; forces[3*j+1] -= wy; forces[3*j+2] -= wz;
        }
        c += kept;
    }
    if (a >= 0) {
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
    return c;
}

/* Directed rows, i side only (the parallel engine's newton-off        */
/* scheme), over the CSR rows (offsets, pj) of a worker's local atoms: */
/* rows i < n_owned only (the owned heads; ghost-headed rows past them */
/* are not read).  Local i and pj[k] index types, and i the output     */
/* arrays; positions are read from the global array at gids[i] /       */
/* gids[pj[k]].  That path hands pair_terms einsum's r2 unchanged.     */
/* Force, 0.5 * energy and (0.5 * f_over_r) * r2 are added to row i    */
/* pair after pair in row order — what the scatter kernels above do to */
/* the unfused per-pair arrays — with the row held in registers.       */
/* Returns the survivor count.                                         */
int64_t lj_rows_f64(const double *pos, const int64_t *gids,
                    const int64_t *offsets, int64_t n_owned,
                    const int64_t *pj, const double *lengths,
                    const uint8_t *periodic, double rc2, const int64_t *types,
                    int64_t nt, const double *eps, const double *sigma,
                    const double *shift, double *forces,
                    double *energy_out, double *virial_out) {
    BOX_LOCALS
    double e4 = 4.0 * eps[0], e24 = 24.0 * eps[0];
    double ss = sigma[0] * sigma[0], sh = shift[0];
    int64_t c = 0;
    for (int64_t i = 0; i < n_owned; i++) {
        const double *pi = pos + 3*gids[i];
        double sx = forces[3*i], sy = forces[3*i+1], sz = forces[3*i+2];
        double se = energy_out[i], sv = virial_out[i];
        for (int64_t k = offsets[i]; k < offsets[i+1]; k++) {
            PAIR_GEOMETRY(pi, pos + 3*gids[pj[k]])
            if (!(r2 < rc2)) continue;
            LJ_COEFFS(i, pj[k])
            LJ_TERMS(r2)
            sx += f * dx; sy += f * dy; sz += f * dz;
            se += 0.5 * energy;
            sv += (0.5 * f) * r2;
            c++;
        }
        forces[3*i] = sx; forces[3*i+1] = sy; forces[3*i+2] = sz;
        energy_out[i] = se; virial_out[i] = sv;
    }
    return c;
}
#undef LJ_GATHER
#undef LJ_COEFFS
#undef LJ_TERMS

/* ------------------------------------------------------------------ */
/* lj/charmm/coul/long terms over the survivors of pair_geom_f64:      */
/* CharmmCoulLong.pair_terms' float64 sequence, one IEEE operation per */
/* numpy ufunc call, each expression associated left to right as numpy */
/* evaluates it.  r is pair_geom's sqrt of einsum's r2; the body's r2  */
/* is r * r (Pairs.r2), and charmm_switch takes the sqrt of that r2    */
/* again.  The python-float constants arrive in s (CH_* below) as      */
/* python formed them — (ro2 - ri2) ** 3 is libm pow, not a product.   */
/* With alpha > 0, erfc_ar and gauss hold scipy's erfc(alpha r) and    */
/* numpy's exp(-(alpha r)^2) (charmm.ewald_screening), which no libm   */
/* call here could round identically; with alpha == 0 they are not     */
/* read.  Types and charges are gathered here, the values the body's   */
/* fancy indexing hands out (nt == 1: the [0, 0] coefficients, types   */
/* never read).  Writes per pair the energy, f_over_r and the virial   */
/* f_over_r * r2 for acc_scaled_f64 and numpy's np.sum; the select     */
/* `x + (in ? v : 0.0)` is the body's x + np.where(in, v, 0.0), which  */
/* adds 0.0 (and so turns -0.0 into +0.0) outside the Coulomb cutoff.  */
/* ------------------------------------------------------------------ */

enum { CH_RI2, CH_RO2, CH_DENOM, CH_RI2_3, CH_COUL_RC, CH_KC, CH_ALPHA,
       CH_ALPHA_2_SQRT_PI };

void charmm_terms_f64(const int64_t *pi, const int64_t *pj, int64_t c,
                      const double *r, const double *erfc_ar,
                      const double *gauss, const int64_t *types, int64_t nt,
                      const double *eps, const double *sigma, const double *q,
                      const double *s, double *oe, double *of, double *ov) {
    const double ri2 = s[CH_RI2], ro2 = s[CH_RO2], denom = s[CH_DENOM];
    const double ri2_3 = s[CH_RI2_3], coul_rc = s[CH_COUL_RC], kc = s[CH_KC];
    const double alpha_2_sqrt_pi = s[CH_ALPHA_2_SQRT_PI];
    const int ewald = s[CH_ALPHA] > 0.0;
    for (int64_t k = 0; k < c; k++) {
        int64_t i = pi[k], j = pj[k];
        int64_t t = nt > 1 ? types[i] * nt + types[j] : 0;
        double e = eps[t], sg = sigma[t];
        double rk = r[k], r2 = rk * rk;
        double inv_r2 = 1.0 / r2;
        double sr2 = (sg * sg) * inv_r2;
        double sr6 = (sr2 * sr2) * sr2;
        double sr12 = sr6 * sr6;
        double e_lj = (4.0 * e) * (sr12 - sr6);
        double f_lj = ((24.0 * e) * (2.0 * sr12 - sr6)) * inv_r2;
        double d2 = ro2 - r2;
        int below = r2 <= ri2, above = r2 >= ro2;
        double sw = below ? 1.0 : above ? 0.0
                  : ((d2 * d2) * ((ro2 + 2.0 * r2) - ri2_3)) / denom;
        double dsw = below || above ? 0.0
                   : (((12.0 * sqrt(r2)) * d2) * (ri2 - r2)) / denom;
        double energy = sw * e_lj;
        double f = sw * f_lj - (dsw * e_lj) / rk;
        double qq = (kc * q[i]) * q[j];
        double e_coul, f_coul;
        if (ewald) {
            e_coul = (qq * erfc_ar[k]) / rk;
            f_coul = qq * (erfc_ar[k] / (r2 * rk)
                           + (alpha_2_sqrt_pi * gauss[k]) * inv_r2);
        } else {
            e_coul = qq / rk;
            f_coul = qq / (r2 * rk);
        }
        int in_coul = rk < coul_rc;
        energy = energy + (in_coul ? e_coul : 0.0);
        f = f + (in_coul ? f_coul : 0.0);
        oe[k] = energy;
        of[k] = f;
        ov[k] = f * r2;
    }
}

/* ------------------------------------------------------------------ */
/* Inner rows: of the CSR rows (offsets, pj) over n atoms, the pairs   */
/* whose r2 at pos — gathered and minimum-imaged exactly as            */
/* pair_geom_f64 — is below rc2, as CSR rows of their own in the       */
/* stored order: atom a's kept partners are                            */
/* partners[inner[a] .. inner[a+1]).  The survivors are compacted      */
/* without a data-dependent branch, so partners must have room for     */
/* every stored pair; the first `returned count` are the rows.         */
/* ------------------------------------------------------------------ */

int64_t prune_rows_f64(const double *pos, int64_t n, const int64_t *offsets,
                       const int64_t *pj, const double *lengths,
                       const uint8_t *periodic, double rc2, int64_t *inner,
                       int64_t *partners) {
    BOX_LOCALS
    int64_t c = 0;
    for (int64_t i = 0; i < n; i++) {
        inner[i] = c;
        for (int64_t k = offsets[i]; k < offsets[i+1]; k++) {
            int64_t j = pj[k];
            PAIR_GEOMETRY(pos + 3*i, pos + 3*j)
            partners[c] = j;
            c += r2 < rc2;
        }
    }
    inner[n] = c;
    return c;
}

/* ------------------------------------------------------------------ */
/* Fused eam/alloy pass over a half list: three sweeps around numpy's  */
/* own exp, whose SIMD loop no libm call rounds identically.           */
/*                                                                     */
/* coef holds r_e, the truncation cutoff rc, then per truncated        */
/* exponential g(r) = A exp(-k (r - r_e)) — the density f, the steep   */
/* and the soft half of phi, in that order — the four numbers          */
/* (A, -k, g_c, k g_c) that eam.truncated_exponential reads:           */
/*   value = (A e - g_c) + (k g_c) (r - rc);  deriv = (-k)(A e) + k g_c */
/* with e = exp((-k)(r - r_e)) as numpy evaluated it.  One IEEE        */
/* operation per numpy ufunc call, so every per-pair value is the      */
/* body's bit for bit.                                                 */
/*                                                                     */
/* 1. eam_geom: over CSR rows (atom i's partners are                   */
/*    pj[offsets[i] .. offsets[i+1]), a half list's stored rows or its */
/*    inner rows), gather, minimum image and cutoff test exactly as    */
/*    pair_geom_f64, writing the survivors' i, j, dr, r and the three  */
/*    exp arguments (-k)(r - r_e), interleaved per pair, compressed.   */
/*    The caller then runs np.exp over the arguments in place.         */
/* 2. eam_density: rho += f(r) over all i in pair order, then over all */
/*    j — partner_sum's two input-order scatters.                      */
/* 3. eam_forces: with the embedding slopes fp = F'(rho) numpy made,   */
/*    phi = steep - 2 soft, f/r = -(phi' + (fp_i + fp_j) f') / r,      */
/*    forces in acc_scaled_f64's order (a run of pairs sharing i       */
/*    summed from zero in registers, j subtracted inline), and per     */
/*    pair phi and (f/r)(r r) written compressed to oe/ov for numpy's  */
/*    np.sum.                                                          */
/* ------------------------------------------------------------------ */

enum { EAM_RE, EAM_RC, EAM_DENSITY, EAM_STEEP = EAM_DENSITY + 4,
       EAM_SOFT = EAM_STEEP + 4 };

static inline double eam_value(const double *g, double e, double r, double rc) {
    return (g[0] * e - g[2]) + g[3] * (r - rc);
}

static inline double eam_deriv(const double *g, double e) {
    return g[1] * (g[0] * e) + g[3];
}

int64_t eam_geom_f64(const double *pos, int64_t n, const int64_t *offsets,
                     const int64_t *pj, const double *lengths,
                     const uint8_t *periodic, double rc2, const double *coef,
                     int64_t *oi, int64_t *oj, double *odr, double *orr,
                     double *oexp) {
    BOX_LOCALS
    const double r_e = coef[EAM_RE];
    const double k_f = coef[EAM_DENSITY + 1], k_steep = coef[EAM_STEEP + 1];
    const double k_soft = coef[EAM_SOFT + 1];
    int64_t c = 0;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t k = offsets[i]; k < offsets[i+1]; k++) {
            PAIR_GEOMETRY(pos + 3*i, pos + 3*pj[k])
            if (r2 < rc2) {
                double r = sqrt(r2), t = r - r_e;
                oi[c] = i; oj[c] = pj[k];
                odr[3*c] = dx; odr[3*c+1] = dy; odr[3*c+2] = dz;
                orr[c] = r;
                oexp[3*c] = k_f * t; oexp[3*c+1] = k_steep * t;
                oexp[3*c+2] = k_soft * t;
                c++;
            }
        }
    }
    return c;
}

void eam_density_f64(const int64_t *pi, const int64_t *pj, int64_t c,
                     const double *r, const double *e, const double *coef,
                     double *rho) {
    const double rc = coef[EAM_RC], *g = coef + EAM_DENSITY;
    for (int64_t k = 0; k < c; k++) rho[pi[k]] += eam_value(g, e[3*k], r[k], rc);
    for (int64_t k = 0; k < c; k++) rho[pj[k]] += eam_value(g, e[3*k], r[k], rc);
}

void eam_forces_f64(const int64_t *pi, const int64_t *pj, int64_t c,
                    const double *dr, const double *r, const double *e,
                    const double *coef, const double *fp, double *forces,
                    double *oe, double *ov) {
    const double rc = coef[EAM_RC];
    const double *gf = coef + EAM_DENSITY, *gs = coef + EAM_STEEP;
    const double *gw = coef + EAM_SOFT;
    int64_t k = 0;
    while (k < c) {
        int64_t a = pi[k];
        double sx = 0.0, sy = 0.0, sz = 0.0;
        do {
            const double *ek = e + 3*k;
            double rk = r[k];
            double phi = eam_value(gs, ek[1], rk, rc)
                         - 2.0 * eam_value(gw, ek[2], rk, rc);
            double dphi = eam_deriv(gs, ek[1]) - 2.0 * eam_deriv(gw, ek[2]);
            int64_t b = pj[k];
            double f = -(dphi + (fp[a] + fp[b]) * eam_deriv(gf, ek[0])) / rk;
            oe[k] = phi;
            ov[k] = f * (rk * rk);
            double wx = f * dr[3*k], wy = f * dr[3*k+1], wz = f * dr[3*k+2];
            sx += wx; sy += wy; sz += wz;
            forces[3*b] -= wx; forces[3*b+1] -= wy; forces[3*b+2] -= wz;
            k++;
        } while (k < c && pi[k] == a);
        forces[3*a] += sx; forces[3*a+1] += sy; forces[3*a+2] += sz;
    }
}

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
/* Brute-force half pair list (CSR): brute_force_pairs in              */
/* repro.md.neighbor, bitwise, for every build the link cells do not   */
/* take (few atoms, or a box under three list cutoffs wide).  Anchors  */
/* a in index order, partners b > a ascending — the order              */
/* np.triu_indices walks — so offsets[a]..offsets[a+1] is atom a's     */
/* row, and a pair is kept when einsum's r2 is below the python-formed */
/* rc2.  Minimum image is Box.minimum_image's exact                    */
/* d - rint(d / L) * L on periodic dims, not the cell builds'          */
/* compare-and-shift, whose preconditions a narrow box breaks (only r2 */
/* leaves the kernel, so the sign of a zero d is immaterial).  Each    */
/* row's r2 is swept over planar copies of the positions, which        */
/* vectorizes, and its survivors compacted without a data-dependent    */
/* branch: partners only, the offsets name the anchors.  No            */
/* precondition on the box; -1 when the scratch cannot be allocated,   */
/* else the capacity protocol of cell_csr_f64.                         */
/* ------------------------------------------------------------------ */

int64_t brute_csr_f64(const double *pos, int64_t n, const double *lengths,
                      const uint8_t *periodic, double rc2, int64_t *oj,
                      int64_t cap, int64_t *offsets) {
    double *x = malloc((size_t)(n > 0 ? 4 * n : 1) * sizeof(double));
    if (!x) return -1;
    double *y = x + n, *z = y + n, *r2 = z + n;
    const double Lx = lengths[0], Ly = lengths[1], Lz = lengths[2];
    const int px = periodic[0], py = periodic[1], pz = periodic[2];
    for (int64_t a = 0; a < n; a++) {
        x[a] = pos[3*a]; y[a] = pos[3*a+1]; z[a] = pos[3*a+2];
    }
    int64_t count = 0;
    for (int64_t a = 0; a < n; a++) {
        offsets[a] = count;
        const double ax = x[a], ay = y[a], az = z[a];
        for (int64_t b = a + 1; b < n; b++) {
            double dx = ax - x[b], dy = ay - y[b], dz = az - z[b];
            if (px) dx -= rint(dx / Lx) * Lx;
            if (py) dy -= rint(dy / Ly) * Ly;
            if (pz) dz -= rint(dz / Lz) * Lz;
            r2[b] = (dx*dx + dz*dz) + dy*dy;
        }
        for (int64_t b = a + 1; b < n; b++) {
            if (count < cap) oj[count] = b;
            count += r2[b] < rc2;
        }
    }
    offsets[n] = count;
    free(x);
    return count;
}

/* ------------------------------------------------------------------ */
/* Link-cell binning shared by the two neighbor builds below: the      */
/* grid, clamped cell coordinates and stable counting sort (== argsort */
/* kind="stable") of cell_list_half_pairs in repro.md.neighbor.        */
/* order[starts[c] .. starts[c+1]) lists cell c's atoms by ascending   */
/* index and slot[a] is atom a's place in order.                       */
/*                                                                     */
/* cell_csr_f64's select route, on the dims where it cannot fix the    */
/* shift per pair of cells, is the one user of a compare-and-shift     */
/* minimum image (dx -/+= L when |dx| > L/2) in place of pair_geom's   */
/* dx -= rint(dx / L) * L.  For |dx| <= 1.5 L both subtract k*L with k */
/* in -1/0/+1 in one rounding, so they agree bitwise whenever they     */
/* pick the same k; they can pick differently only for |dx| within     */
/* rounding of L/2 or 3L/2, where both leave |dx| ~ L/2, and with L >= */
/* 3 rc such a pair has r2 >= 2.25 rc^2 and is rejected either way.    */
/* Both conditions are checked here, not assumed: every coordinate on  */
/* a periodic dim must lie within L/4 of the box (wrapped positions    */
/* do, to rounding) and every periodic dim must hold >= 3 cells, else  */
/* binning returns -2 and the caller takes the numpy path (-1:         */
/* allocation failure, 0: binned).  So does a grid of more than        */
/* INT32_MAX cells — the bound cell_list_half_pairs names in its       */
/* error: the count is multiplied up in double, so neither it nor the  */
/* flat cell index can wrap.  cell_bins_free releases whatever was     */
/* allocated.                                                          */
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

/* ------------------------------------------------------------------ */
/* Link-cell half pair list (CSR).  Candidates are those of            */
/* cell_list_half_pairs — later members of the anchor's own cell in    */
/* sorted slot order, the 13-offset forward stencil with Python-modulo */
/* wrapping on periodic dims — and the output is the exact order       */
/* np.lexsort((j, i)) gives them: offsets[a]..offsets[a+1] is atom a's */
/* row, partners ascending, and no sort is left for the caller.        */
/*                                                                     */
/* The anchors are walked cell by cell over planar copies xs/ys/zs of  */
/* the positions in bin order, so the anchors of one cell share their  */
/* stencil's candidate ranges while those are in cache.  Per range, a  */
/* branch-free loop forms every candidate's r2 (einsum's f64 order)    */
/* and a second loop compacts the survivors without a branch on r2;    */
/* stencil cells adjacent in bin order with the same image             */
/* shift are scanned as one range.                                     */
/*                                                                     */
/* Minimum image takes one of two routes per periodic dim.  The        */
/* hoisted shift: when the dim holds >= 4 cells and every coordinate   */
/* lies within rc/4 of the box, the shift is -L where the stencil      */
/* index wrapped past the top cell, +L where it wrapped below cell 0,  */
/* else 0 — fixed per (anchor cell, stencil cell) and added as         */
/* dx + s, which is rint's dx - k L bitwise when both take the same k  */
/* (and the same r2 for k = 0, where only a zero's sign can differ).   */
/* Where they differ, both reject: the cell width w = L/n is at least */
/* rc and at most L/4, an unwrapped candidate has |dx| <= 2w + rc/4    */
/* and a wrapped one |dx| in (L - 2w, L + rc/2], so where rint picks   */
/* another k one side is left with |dx| >= L/2 - rc/4 >= 1.75 rc and   */
/* the other with |dx| >= L/2 >= 2 rc.  With 3 cells, or an atom       */
/* further out, that slack is gone and the dim keeps the               */
/* compare-and-shift of cell_bins, written as a select.                */
/*                                                                     */
/* Each row is built contiguously, sorted by insertion and parked in   */
/* `rows` (its own scratch, cap long) in walk order, its length in     */
/* offsets[a + 1] and its start in park[a]; once every row is in, they */
/* move to oj in atom order.  Partners only: the offsets name the      */
/* anchors.  Writes at most `cap` pairs but keeps counting; the caller */
/* grows its buffer and reruns when the returned count > cap.          */
/* Negative returns are cell_bins_build's.                             */
/* ------------------------------------------------------------------ */

/* Candidate r2 of slots [0, len) of xs/ys/zs against the anchor at    */
/* (ax, ay, az) shifted by (sx, sy, sz); with `select`, the            */
/* compare-and-shift against h (infinite on dims that do not take it). */
static inline void cell_r2(const double *xs, const double *ys,
                           const double *zs, int64_t len, double ax,
                           double ay, double az, const double *s,
                           int select, const double *L, const double *h,
                           double *r2) {
    const double sx = s[0], sy = s[1], sz = s[2];
    if (!select) {
        for (int64_t k = 0; k < len; k++) {
            double dx = (ax - xs[k]) + sx;
            double dy = (ay - ys[k]) + sy;
            double dz = (az - zs[k]) + sz;
            r2[k] = (dx*dx + dz*dz) + dy*dy;       /* einsum f64 order */
        }
        return;
    }
    for (int64_t k = 0; k < len; k++) {
        double dx = (ax - xs[k]) + sx;
        double dy = (ay - ys[k]) + sy;
        double dz = (az - zs[k]) + sz;
        dx = dx > h[0] ? dx - L[0] : dx < -h[0] ? dx + L[0] : dx;
        dy = dy > h[1] ? dy - L[1] : dy < -h[1] ? dy + L[1] : dy;
        dz = dz > h[2] ? dz - L[2] : dz < -h[2] ? dz + L[2] : dz;
        r2[k] = (dx*dx + dz*dz) + dy*dy;
    }
}

/* One stencil range of the cell walk: slots [lo, hi) and their shift. */
typedef struct {
    int64_t lo, hi;
    double shift[3];
} cell_range;

int64_t cell_csr_f64(const double *pos, int64_t n, const double *lengths,
                     const double *origin, const uint8_t *periodic, double rc,
                     int64_t *oj, int64_t cap, int64_t *offsets) {
    cell_bins g;
    double *xs = NULL;
    int64_t *park = NULL, *rows = NULL;
    int64_t count = cell_bins_build(&g, pos, n, lengths, origin, periodic, rc);
    if (count < 0) goto done;
    const int64_t *n_cells = g.n_cells, *starts = g.starts, *order = g.order;
    const int64_t total_cells = n_cells[0] * n_cells[1] * n_cells[2];
    int64_t most = 0;                      /* largest range, in slots */
    for (int64_t c = 0; c < total_cells; c++) {
        int64_t span = starts[c+1] - starts[c];
        if (span > most) most = span;
    }
    most *= 14;
    xs = malloc((size_t)(3 * n + most + 1) * sizeof(double));
    park = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    rows = malloc((size_t)(cap > 0 ? cap : 1) * sizeof(int64_t));
    if (!xs || !park || !rows) { count = -1; goto done; }
    double *ys = xs + n, *zs = ys + n, *r2 = zs + n;
    double lo[3] = {INFINITY, INFINITY, INFINITY};
    double hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    for (int64_t l = 0; l < n; l++) {
        const double *p = pos + 3*order[l];
        xs[l] = p[0]; ys[l] = p[1]; zs[l] = p[2];
        for (int d = 0; d < 3; d++) {
            lo[d] = p[d] < lo[d] ? p[d] : lo[d];
            hi[d] = p[d] > hi[d] ? p[d] : hi[d];
        }
    }
    /* Per dim: hoist the shift (hoist[d]) or compare-and-shift at h[d]. */
    int hoist[3], select = 0;
    double h[3];
    for (int d = 0; d < 3; d++) {
        double reach = 0.25 * rc;
        hoist[d] = periodic[d] && n_cells[d] >= 4
                   && lo[d] - origin[d] >= -reach
                   && hi[d] - origin[d] <= lengths[d] + reach;
        h[d] = periodic[d] && !hoist[d] ? 0.5 * lengths[d] : INFINITY;
        select |= periodic[d] && !hoist[d];
    }
    const double rc2 = rc * rc;

    /* The 13 forward offsets of _HALF_STENCIL, in its order. */
    static const int off[13][3] = {
        {0,0,1}, {0,1,-1}, {0,1,0}, {0,1,1},
        {1,-1,-1}, {1,-1,0}, {1,-1,1}, {1,0,-1}, {1,0,0}, {1,0,1},
        {1,1,-1}, {1,1,0}, {1,1,1},
    };
    int64_t cell = 0;
    for (int64_t cx = 0; cx < n_cells[0]; cx++)
    for (int64_t cy = 0; cy < n_cells[1]; cy++)
    for (int64_t cz = 0; cz < n_cells[2]; cz++, cell++) {
        const int64_t first = starts[cell], end = starts[cell+1];
        if (first == end) continue;
        /* ranges[0] is the own cell's tail: [slot + 1, end) per anchor. */
        cell_range ranges[14] = {{end, end, {0.0, 0.0, 0.0}}};
        int nr = 1;
        const int64_t here[3] = {cx, cy, cz};
        for (int s = 0; s < 13; s++) {
            int64_t at[3];
            double shift[3];
            int inside = 1;
            for (int d = 0; d < 3; d++) {
                int64_t v = here[d] + off[s][d];
                shift[d] = 0.0;
                if (v < 0 || v >= n_cells[d]) {
                    if (!periodic[d]) inside = 0;
                    if (hoist[d]) shift[d] = v < 0 ? lengths[d] : -lengths[d];
                    v += v < 0 ? n_cells[d] : -n_cells[d];
                }
                at[d] = v;
            }
            if (!inside) continue;
            int64_t c = at[0] * g.sx + at[1] * g.sy + at[2];
            if (starts[c] == starts[c+1]) continue;
            cell_range *last = &ranges[nr - 1];
            if (starts[c] == last->hi && shift[0] == last->shift[0]
                && shift[1] == last->shift[1] && shift[2] == last->shift[2]) {
                last->hi = starts[c+1];
            } else {
                cell_range next = {starts[c], starts[c+1],
                                   {shift[0], shift[1], shift[2]}};
                ranges[nr++] = next;
            }
        }
        for (int64_t l = first; l < end; l++) {
            const int64_t a = order[l], row = count;
            const double ax = xs[l], ay = ys[l], az = zs[l];
            park[a] = row;
            ranges[0].lo = l + 1;
            for (int r = 0; r < nr; r++) {
                const int64_t S = ranges[r].lo, len = ranges[r].hi - S;
                if (len <= 0) continue;
                cell_r2(xs + S, ys + S, zs + S, len, ax, ay, az,
                        ranges[r].shift, select, lengths, h, r2);
                for (int64_t k = 0; k < len; k++) {
                    if (count < cap) rows[count] = order[S + k];
                    count += r2[k] < rc2;
                }
            }
            offsets[a + 1] = count - row;
            /* Rows that overflowed `cap` are rebuilt by the caller's retry. */
            if (count <= cap) {
                for (int64_t k = row + 1; k < count; k++) {
                    int64_t b = rows[k], m = k;
                    while (m > row && rows[m-1] > b) { rows[m] = rows[m-1]; m--; }
                    rows[m] = b;
                }
            }
        }
    }
    offsets[0] = 0;
    if (count <= cap) {
        for (int64_t a = 0; a < n; a++) {
            int64_t at = offsets[a], len = offsets[a + 1];
            memcpy(oj + at, rows + park[a], (size_t)len * sizeof(int64_t));
            offsets[a + 1] = at + len;
        }
    }
    offsets[n] = count;
done:
    free(xs);
    free(park);
    free(rows);
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
/*                                                                     */
/* CSR rows like cell_csr_f64's: partners only, offsets[a] ..          */
/* offsets[a+1] is atom a's row, and the rows of atoms a >=            */
/* anchor_limit are empty.                                             */
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
                      const int64_t *sort_key, int64_t anchor_limit,
                      int64_t *oj, int64_t cap, int64_t *offsets) {
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
    const double rc2 = rc * rc;
    for (int64_t a = 0; a < anchor_limit; a++) {
        int64_t row = offsets[a] = count;
        double ax = pos[3*a], ay = pos[3*a+1], az = pos[3*a+2];
        int64_t cx = coords[3*a], cy = coords[3*a+1], cz = coords[3*a+2];
        int64_t z0 = cz > 1 ? cz - 2 : 0;
        int64_t z1 = cz + 2 < n_cells[2] ? cz + 2 : n_cells[2] - 1;
        for (int64_t nx = cx - 2; nx <= cx + 2; nx++) {
            if (nx < 0 || nx >= n_cells[0]) continue;
            for (int64_t ny = cy - 2; ny <= cy + 2; ny++) {
                if (ny < 0 || ny >= n_cells[1]) continue;
                int64_t c = nx * sx + ny * sy;
                for (int64_t l = starts[c + z0]; l < starts[c + z1 + 1]; l++) {
                    int64_t b = order[l];
                    double dx = ax - pos[3*b];
                    double dy = ay - pos[3*b+1];
                    double dz = az - pos[3*b+2];
                    double r2 = (dx*dx + dz*dz) + dy*dy;   /* einsum f64 */
                    if (r2 < rc2 && b != a) {
                        if (count < cap) oj[count] = b;
                        keys[count - row] = sort_key[b];
                        count++;
                    }
                }
            }
        }
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
    for (int64_t a = anchor_limit; a <= n; a++) offsets[a] = count;
done:
    free(keys);
    cell_bins_free(&g);
    return count;
}

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
#: dtype and add up in the accumulate dtype, a body that accumulates
#: nothing is built per compute dtype, and geometry is storage-typed.
ACCUMULATE = {(p.compute_dtype, p.accumulate_dtype): p for p in _POLICIES}
COMPUTE = {(p.compute_dtype, p.compute_dtype): p for p in _POLICIES}
GEOMETRY = {(p.storage_dtype, p.storage_dtype): p for p in _POLICIES}
DOUBLE = {(DOUBLE_POLICY.storage_dtype, DOUBLE_POLICY.storage_dtype): DOUBLE_POLICY}

#: The instance table: ``stem -> (instances, restype, signature)``, one
#: row per C body, whose provider entry is ``CcProvider.<stem>``.  A
#: signature names each C argument by one letter: an array by its
#: element type — ``v`` VAL, ``a`` ACC, ``i`` int64, ``u`` uint8 — in
#: upper case when the kernel writes it; ``n`` is an int64 the caller
#: passes, ``s`` a VAL scalar, and ``#`` an int64 the entry inserts:
#: ``len()`` of the array just before it (a list's length, an atom
#: count, an output's room).  The entry takes the other arguments in C
#: order and picks the instance from the dtypes of the first ``v``/``V``
#: and the first ``a``/``A`` array (the value dtype when there is none),
#: or declines the call (:func:`_entry`).
KERNELS = {
    "scatter1": (ACCUMULATE, None, "A i v #"),
    "scatter3": (ACCUMULATE, None, "A i v #"),
    "acc_scaled": (ACCUMULATE, None, "A i i # v v"),
    "acc_pair": (ACCUMULATE, None, "A i i # v"),
    "pppm_spread": (ACCUMULATE, ctypes.c_int64, "A i v v # n I V"),
    "pppm_gather": (COMPUTE, ctypes.c_int64, "V v v v i v # n I V"),
    "pair_geom": (GEOMETRY, ctypes.c_int64, "v # i i v u s I I V V"),
    "lj_half": (DOUBLE, ctypes.c_int64, "v # i i v u s i n v v v A A A"),
    "lj_rows": (DOUBLE, ctypes.c_int64, "v i i n i v u s i n v v v A A A"),
    "prune_rows": (DOUBLE, ctypes.c_int64, "v # i i v u s I I"),
    "eam_geom": (DOUBLE, ctypes.c_int64, "v # i i v u s v I I V V V"),
    "eam_density": (DOUBLE, None, "i i # v v v A"),
    "eam_forces": (DOUBLE, None, "i i # v v v v v A A A"),
    "tersoff_full": (DOUBLE, ctypes.c_int64, "v # i i v u s v n V I A A"),
    "charmm_terms": (DOUBLE, None, "i i # v v v i n v v v v A A A"),
    "brute_csr": (DOUBLE, ctypes.c_int64, "v # v u s I # I"),
    "cell_csr": (DOUBLE, ctypes.c_int64, "v # v v u s I # I"),
    "cell_rows": (DOUBLE, ctypes.c_int64, "v # v v u s i n I # I"),
    "max_disp_sq": (DOUBLE, ctypes.c_double, "v v # v v u"),
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
        (ACCUMULATE, _MESH_C),
        (COMPUTE, _GATHER_C),
        (GEOMETRY, _GEOMETRY_C),
        (DOUBLE, _DOUBLE_C),
    )
    for val, acc in instances
)


def _argtypes(signature: str, val: np.dtype, acc: np.dtype) -> list:
    """ctypes ``argtypes`` of one instance from its row's signature."""
    scalars = {"n": ctypes.c_int64, "#": ctypes.c_int64, "s": _C_TYPES[val][1]}
    elements = {"v": val, "a": acc, "i": np.int64, "u": np.uint8}
    return [
        scalars.get(letter) or _ptr(elements[letter.lower()], letter.isupper())
        for letter in signature.split()
    ]


def _ptr(dtype, writeable=False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return ndpointer(dtype=dtype, flags=flags)


def _entry(bound: dict, stem: str, signature: str):
    """``CcProvider.<stem>``: the kernel called with the row's arguments
    but its ``#`` lengths, which it inserts.  The instance is looked up
    in ``bound`` on every call, so a swapped instance is the one run.

    This is the one check between Python and C: the entry returns
    :data:`~repro.md.kernels.base.DECLINED`, before the kernel runs,
    when the argument dtypes pick no instance or when ctypes refuses an
    argument — an array of another dtype, not C-contiguous, read-only
    where the signature writes, or no array at all.  Any other error
    (a wrong argument count) propagates."""
    letters = signature.split()
    given = [letter for letter in letters if letter != "#"]
    value = next(k for k, letter in enumerate(given) if letter in "vV")
    acc = next((k for k, letter in enumerate(given) if letter in "aA"), value)
    lengths = [k for k, letter in enumerate(letters) if letter == "#"]

    def entry(*args):
        val = getattr(args[value], "dtype", None)
        fn = bound.get((stem, val, getattr(args[acc], "dtype", None)))
        if fn is None:
            return DECLINED
        args = list(args)
        for k in lengths:
            args.insert(k, len(args[k - 1]))
        try:
            return fn(*args)
        except ctypes.ArgumentError:  # raised converting, before the call
            return DECLINED

    return entry


def _find_compiler() -> str | None:
    """``$CC`` when set — and then only it, so a bad ``$CC`` is reported
    instead of silently replaced — else the first of cc/gcc/clang."""
    chosen = os.environ.get("CC")
    for cc in (chosen,) if chosen else ("cc", "gcc", "clang"):
        if shutil.which(cc):
            return cc
    return None


@functools.cache
def compiler_id(cc: str) -> str:
    """The first line of ``cc --version``, or ``cc`` itself when it
    prints none: the compiler a build used, without building."""
    try:
        banner = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        return cc
    return banner[0].strip() if banner else cc


@functools.cache
def target(cc: str) -> str | None:
    """What ``-march=native`` resolves to for ``cc`` on this host, or
    ``None`` when ``cc`` rejects the flag or names no CPU for it.

    One dry run, ``cc -march=native -### -x c -c /dev/null``, which
    prints the commands a compile would run without running them: the
    target options of its compiler-proper line, in printed order —
    gcc's expanded ``-march=<cpu>``, ``-m<feature>`` switches and
    cache-size ``--param``s, clang's ``-target-cpu`` and
    ``-target-feature`` list.  Paths and temporary names are left out,
    so the text is the same for every process on one host.
    """
    try:
        probe = subprocess.run(
            [cc, _TARGET_FLAG, "-###", "-x", "c", "-c", os.devnull],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if probe.returncode != 0:
        return None
    for line in (probe.stderr + probe.stdout).splitlines():
        try:
            words = shlex.split(line)
        except ValueError:
            continue
        cpus = {
            word.partition("=")[2] for word in words if word.startswith("-march=")
        } | {value for option, value in zip(words, words[1:]) if option == "-target-cpu"}
        if not cpus - {"native"}:
            continue
        return " ".join(
            word for k, word in enumerate(words)
            if word.startswith("-m") or word in _TARGET_VALUED
            or (k and words[k - 1] in _TARGET_VALUED)
        )
    return None


def cflags(cc: str) -> tuple[str, ...]:
    """The flags ``cc`` builds the unit with: :data:`_CFLAGS`, plus the
    target flag where :func:`target` resolves it."""
    return (*_CFLAGS, _TARGET_FLAG) if target(cc) else _CFLAGS


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


def _library_path(cc: str, flags: tuple[str, ...]) -> Path:
    """Where the library ``cc`` builds with ``flags`` is cached: named
    by a hash of the source, the compiler's version line, the target
    ``-march=native`` resolves to here and the flags."""
    key_material = "\x00".join(
        [_SOURCE, compiler_id(cc), target(cc) or "", *flags]
    )
    key = hashlib.sha256(key_material.encode()).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{key}.so"


def _build_library() -> tuple[ctypes.CDLL, str]:
    """Compile (or reuse) the shared object; returns (lib, compiler id)."""
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found on PATH ($CC if set, else cc/gcc/clang)"
        )
    flags = cflags(cc)
    so_path = _library_path(cc, flags)
    cache = so_path.parent
    if not so_path.exists():
        # Build under a unique name, publish with an atomic rename:
        # concurrent processes either see the finished library or none.
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            src = Path(workdir) / "kernels.c"
            src.write_text(_SOURCE)
            tmp_so = Path(workdir) / "kernels.so"
            proc = subprocess.run(
                [cc, *flags, "-o", str(tmp_so), str(src), "-lm"],
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
    """ctypes bindings over the cached shared object: one entry per
    :data:`KERNELS` row, bound as the attribute its stem names.

    An entry takes C-contiguous arrays of the exact dtypes its signature
    names and returns :data:`~repro.md.kernels.base.DECLINED` for any
    other (:func:`_entry`); shapes and index bounds are the caller's to
    check.
    """

    kind = "cc"

    #: Doubles of row scratch ``tersoff_full`` carves up per slot.
    TERSOFF_SLOT_DOUBLES = 16

    def __init__(self) -> None:
        lib, cc = _build_library()
        self._lib = lib
        self.version = compiler_id(cc)
        #: The table, resolved: ``(stem, VAL, ACC) -> bound function``.
        self.bound = {}
        for stem, (instances, restype, signature) in KERNELS.items():
            for val, acc in instances:
                fn = getattr(lib, symbol(stem, val, acc))
                fn.restype = restype
                fn.argtypes = _argtypes(signature, val, acc)
                self.bound[stem, val, acc] = fn
            setattr(self, stem, _entry(self.bound, stem, signature))
