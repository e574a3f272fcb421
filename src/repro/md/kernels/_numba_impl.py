"""Numba provider for the ``compiled`` kernel backend.

This module imports ``numba`` at the top level on purpose: the
``compiled`` backend's provider resolution imports it inside a
``try`` block, so an absent/broken numba surfaces as a diagnostic
reason, not a crash.  JIT problems (e.g. an LLVM/numpy version
mismatch) are caught the same way — every function is exercised on
tiny inputs by the backend's smoke test before the provider is
accepted, so a compile failure at that point demotes the backend to
its numpy fallback instead of failing mid-simulation.

The numerical contract is identical to the C provider in
``_cc_impl`` (see its module docstring): exact ``Box.minimum_image``
operation sequence (compare-and-shift in the neighbor build, under
the same checked preconditions), einsum's per-dtype r² summation
order, and
input-order scatter accumulation with float32 terms widened to the
float64 accumulator under the MIXED policy.  ``cache=True`` persists
the compiled machine code next to this file so warm processes skip
recompilation; ``fastmath`` stays off — reassociation or FMA
contraction would break bitwise parity with the numpy backends.
"""

from __future__ import annotations

import numpy as np

import numba
from numba import njit

__all__ = ["make_provider"]


@njit(cache=True)
def _scatter1(out, idx, v):
    for k in range(idx.shape[0]):
        out[idx[k]] += v[k]


@njit(cache=True)
def _scatter3(out, idx, v):
    for k in range(idx.shape[0]):
        a = idx[k]
        out[a, 0] += v[k, 0]
        out[a, 1] += v[k, 1]
        out[a, 2] += v[k, 2]


@njit(cache=True)
def _acc_scaled(forces, pi, pj, dr, f_over_r):
    m = pi.shape[0]
    k = 0
    while k < m:
        a = pi[k]
        sx = 0.0
        sy = 0.0
        sz = 0.0
        while True:
            f = f_over_r[k]
            wx = f * dr[k, 0]
            wy = f * dr[k, 1]
            wz = f * dr[k, 2]
            sx += wx
            sy += wy
            sz += wz
            b = pj[k]
            forces[b, 0] -= wx
            forces[b, 1] -= wy
            forces[b, 2] -= wz
            k += 1
            if k >= m or pi[k] != a:
                break
        forces[a, 0] += sx
        forces[a, 1] += sy
        forces[a, 2] += sz


@njit(cache=True)
def _acc_pair(forces, pi, pj, fv):
    m = pi.shape[0]
    k = 0
    while k < m:
        a = pi[k]
        sx = 0.0
        sy = 0.0
        sz = 0.0
        while True:
            wx = fv[k, 0]
            wy = fv[k, 1]
            wz = fv[k, 2]
            sx += wx
            sy += wy
            sz += wz
            b = pj[k]
            forces[b, 0] -= wx
            forces[b, 1] -= wy
            forces[b, 2] -= wz
            k += 1
            if k >= m or pi[k] != a:
                break
        forces[a, 0] += sx
        forces[a, 1] += sy
        forces[a, 2] += sz


@njit(cache=True)
def _min_image(d, L, h, zero):
    """Twin of ``min_image_f64/f32``: ``h = 0.49 * L`` and ``zero`` is
    ``+0.0`` in ``d``'s dtype (a float64 literal would promote float32
    geometry)."""
    if abs(d) <= h:
        return d + zero
    return d - np.rint(d / L) * L


@njit(cache=True)
def _pair_geom_f64(pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
    Lx, Ly, Lz = lengths[0], lengths[1], lengths[2]
    hx, hy, hz = 0.49 * Lx, 0.49 * Ly, 0.49 * Lz
    px, py, pz = periodic[0], periodic[1], periodic[2]
    c = 0
    for k in range(pi.shape[0]):
        a = pi[k]
        b = pj[k]
        dx = pos[a, 0] - pos[b, 0]
        dy = pos[a, 1] - pos[b, 1]
        dz = pos[a, 2] - pos[b, 2]
        if px:
            dx = _min_image(dx, Lx, hx, 0.0)
        if py:
            dy = _min_image(dy, Ly, hy, 0.0)
        if pz:
            dz = _min_image(dz, Lz, hz, 0.0)
        r2 = (dx * dx + dz * dz) + dy * dy  # einsum f64 order
        if r2 < rc2:
            oi[c] = a
            oj[c] = b
            odr[c, 0] = dx
            odr[c, 1] = dy
            odr[c, 2] = dz
            orr[c] = np.sqrt(r2)
            c += 1
    return c


@njit(cache=True)
def _pair_geom_f32(pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
    Lx, Ly, Lz = lengths[0], lengths[1], lengths[2]
    near_half = np.float32(0.49)
    hx, hy, hz = near_half * Lx, near_half * Ly, near_half * Lz
    zero = np.float32(0.0)
    px, py, pz = periodic[0], periodic[1], periodic[2]
    c = 0
    for k in range(pi.shape[0]):
        a = pi[k]
        b = pj[k]
        dx = pos[a, 0] - pos[b, 0]
        dy = pos[a, 1] - pos[b, 1]
        dz = pos[a, 2] - pos[b, 2]
        if px:
            dx = _min_image(dx, Lx, hx, zero)
        if py:
            dy = _min_image(dy, Ly, hy, zero)
        if pz:
            dz = _min_image(dz, Lz, hz, zero)
        r2 = (dx * dx + dy * dy) + dz * dz  # einsum f32 order
        if r2 < rc2:
            oi[c] = a
            oj[c] = b
            odr[c, 0] = dx
            odr[c, 1] = dy
            odr[c, 2] = dz
            orr[c] = np.sqrt(r2)
            c += 1
    return c


@njit(cache=True, error_model="numpy")
def _lj_half(
    pos, pi, pj, lengths, periodic, rc2, types, eps, sigma, shift,
    forces, oe, ov,
):
    """Twin of ``lj_half_f64`` (contract in the C source): fused lj/cut
    over a half list, bitwise the unfused float64 path.  numpy's error
    model, so coincident atoms give ``inf`` as they do there."""
    Lx, Ly, Lz = lengths[0], lengths[1], lengths[2]
    hx, hy, hz = 0.49 * Lx, 0.49 * Ly, 0.49 * Lz
    px, py, pz = periodic[0], periodic[1], periodic[2]
    typed = eps.shape[0] > 1
    e4 = 4.0 * eps[0, 0]
    e24 = 24.0 * eps[0, 0]
    ss = sigma[0, 0] * sigma[0, 0]
    sh = shift[0, 0]
    c = 0
    a = -1
    sx = 0.0
    sy = 0.0
    sz = 0.0
    for k in range(pi.shape[0]):
        i = pi[k]
        j = pj[k]
        dx = pos[i, 0] - pos[j, 0]
        dy = pos[i, 1] - pos[j, 1]
        dz = pos[i, 2] - pos[j, 2]
        if px:
            dx = _min_image(dx, Lx, hx, 0.0)
        if py:
            dy = _min_image(dy, Ly, hy, 0.0)
        if pz:
            dz = _min_image(dz, Lz, hz, 0.0)
        r2 = (dx * dx + dz * dz) + dy * dy  # einsum f64 order
        if not (r2 < rc2):
            continue
        if i != a:
            if a >= 0:
                forces[a, 0] += sx
                forces[a, 1] += sy
                forces[a, 2] += sz
            a = i
            sx = 0.0
            sy = 0.0
            sz = 0.0
        if typed:
            ti = types[i]
            tj = types[j]
            e4 = 4.0 * eps[ti, tj]
            e24 = 24.0 * eps[ti, tj]
            ss = sigma[ti, tj] * sigma[ti, tj]
            sh = shift[ti, tj]
        r = np.sqrt(r2)
        rr = r * r
        inv_r2 = 1.0 / rr
        sr2 = ss * inv_r2
        sr6 = (sr2 * sr2) * sr2
        sr12 = sr6 * sr6
        f = (e24 * (2.0 * sr12 - sr6)) * inv_r2
        oe[c] = e4 * (sr12 - sr6) - sh
        ov[c] = f * rr
        c += 1
        wx = f * dx
        wy = f * dy
        wz = f * dz
        sx += wx
        sy += wy
        sz += wz
        forces[j, 0] -= wx
        forces[j, 1] -= wy
        forces[j, 2] -= wz
    if a >= 0:
        forces[a, 0] += sx
        forces[a, 1] += sy
        forces[a, 2] += sz
    return c


@njit(cache=True, error_model="numpy")
def _lj_rows(
    pos, di, dj, gi, gj, lengths, periodic, rc2, types, eps, sigma, shift,
    forces, energy, virial,
):
    """Twin of ``lj_rows_f64``: fused lj/cut over directed rows, i side
    only, bitwise the unfused float64 path."""
    Lx, Ly, Lz = lengths[0], lengths[1], lengths[2]
    hx, hy, hz = 0.49 * Lx, 0.49 * Ly, 0.49 * Lz
    px, py, pz = periodic[0], periodic[1], periodic[2]
    typed = eps.shape[0] > 1
    e4 = 4.0 * eps[0, 0]
    e24 = 24.0 * eps[0, 0]
    ss = sigma[0, 0] * sigma[0, 0]
    sh = shift[0, 0]
    c = 0
    a = -1
    sx = 0.0
    sy = 0.0
    sz = 0.0
    se = 0.0
    sv = 0.0
    for k in range(di.shape[0]):
        p = gi[k]
        q = gj[k]
        dx = pos[p, 0] - pos[q, 0]
        dy = pos[p, 1] - pos[q, 1]
        dz = pos[p, 2] - pos[q, 2]
        if px:
            dx = _min_image(dx, Lx, hx, 0.0)
        if py:
            dy = _min_image(dy, Ly, hy, 0.0)
        if pz:
            dz = _min_image(dz, Lz, hz, 0.0)
        r2 = (dx * dx + dz * dz) + dy * dy  # einsum f64 order
        if not (r2 < rc2):
            continue
        i = di[k]
        if i != a:
            if a >= 0:
                forces[a, 0] = sx
                forces[a, 1] = sy
                forces[a, 2] = sz
                energy[a] = se
                virial[a] = sv
            a = i
            sx = forces[a, 0]
            sy = forces[a, 1]
            sz = forces[a, 2]
            se = energy[a]
            sv = virial[a]
        if typed:
            ti = types[i]
            tj = types[dj[k]]
            e4 = 4.0 * eps[ti, tj]
            e24 = 24.0 * eps[ti, tj]
            ss = sigma[ti, tj] * sigma[ti, tj]
            sh = shift[ti, tj]
        inv_r2 = 1.0 / r2
        sr2 = ss * inv_r2
        sr6 = (sr2 * sr2) * sr2
        sr12 = sr6 * sr6
        f = (e24 * (2.0 * sr12 - sr6)) * inv_r2
        sx += f * dx
        sy += f * dy
        sz += f * dz
        se += 0.5 * (e4 * (sr12 - sr6) - sh)
        sv += (0.5 * f) * r2
        c += 1
    if a >= 0:
        forces[a, 0] = sx
        forces[a, 1] = sy
        forces[a, 2] = sz
        energy[a] = se
        virial[a] = sv
    return c


@njit(cache=True)
def _cell_csr(pos, lengths, origin, periodic, rc, count_rc2, oi, oj, offsets):
    """Row-by-row link-cell half list; twin of ``cell_csr_f64``.

    See the C source in ``_cc_impl`` for the contract (row order,
    compare-and-shift minimum image and its checked preconditions,
    overflow protocol).  Returns ``(count, within)``; ``count == -2``
    when a precondition is not met.
    """
    n = pos.shape[0]
    cap = oi.shape[0]
    n_cells = np.empty(3, np.int64)
    cell_size = np.empty(3, np.float64)
    for d in range(3):
        nc = np.int64(np.floor(lengths[d] / rc))
        n_cells[d] = nc if nc > 1 else 1
        cell_size[d] = lengths[d] / n_cells[d]
        if periodic[d] and n_cells[d] < 3:
            return -2, 0
    sy = n_cells[2]
    sx = n_cells[1] * n_cells[2]
    total_cells = n_cells[0] * n_cells[1] * n_cells[2]

    coords = np.empty((n, 3), np.int64)
    flat = np.empty(n, np.int64)
    starts = np.zeros(total_cells + 1, np.int64)
    for a in range(n):
        for d in range(3):
            rel = pos[a, d] - origin[d]
            if periodic[d] and not (
                rel >= -0.25 * lengths[d] and rel <= 1.25 * lengths[d]
            ):
                return -2, 0
            c = np.int64(np.floor(rel / cell_size[d]))
            if c > n_cells[d] - 1:
                c = n_cells[d] - 1
            if c < 0:
                c = np.int64(0)
            coords[a, d] = c
        flat[a] = coords[a, 0] * sx + coords[a, 1] * sy + coords[a, 2]
        starts[flat[a] + 1] += 1
    for c in range(total_cells):
        starts[c + 1] += starts[c]
    fill = starts[:total_cells].copy()
    order = np.empty(n, np.int64)
    slot = np.empty(n, np.int64)
    for a in range(n):  # stable counting sort == argsort kind="stable"
        slot[a] = fill[flat[a]]
        order[slot[a]] = a
        fill[flat[a]] += 1

    px, py, pz = periodic[0], periodic[1], periodic[2]
    Lx, Ly, Lz = lengths[0], lengths[1], lengths[2]
    hx, hy, hz = 0.5 * Lx, 0.5 * Ly, 0.5 * Lz
    rc2 = rc * rc
    count = 0
    within = 0

    # The 13 forward offsets of _HALF_STENCIL, in its order.
    off = np.array(
        [
            (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1),
            (1, -1, -1), (1, -1, 0), (1, -1, 1),
            (1, 0, -1), (1, 0, 0), (1, 0, 1),
            (1, 1, -1), (1, 1, 0), (1, 1, 1),
        ],
        dtype=np.int64,
    )

    for a in range(n):
        row = count
        offsets[a] = row
        ax, ay, az = pos[a, 0], pos[a, 1], pos[a, 2]
        # Candidate slot ranges: later members of the anchor's own cell
        # (triangular half), then the 13 forward neighbor cells.
        for s in range(-1, 13):
            if s < 0:
                lo = slot[a] + 1
                hi = starts[flat[a] + 1]
            else:
                nx = coords[a, 0] + off[s, 0]
                ny = coords[a, 1] + off[s, 1]
                nz = coords[a, 2] + off[s, 2]
                if px:
                    nx = ((nx % n_cells[0]) + n_cells[0]) % n_cells[0]
                elif nx < 0 or nx >= n_cells[0]:
                    continue
                if py:
                    ny = ((ny % n_cells[1]) + n_cells[1]) % n_cells[1]
                elif ny < 0 or ny >= n_cells[1]:
                    continue
                if pz:
                    nz = ((nz % n_cells[2]) + n_cells[2]) % n_cells[2]
                elif nz < 0 or nz >= n_cells[2]:
                    continue
                cell = nx * sx + ny * sy + nz
                lo = starts[cell]
                hi = starts[cell + 1]
            for idx in range(lo, hi):
                b = order[idx]
                dx = ax - pos[b, 0]
                dy = ay - pos[b, 1]
                dz = az - pos[b, 2]
                if px:
                    if dx > hx:
                        dx -= Lx
                    elif dx < -hx:
                        dx += Lx
                if py:
                    if dy > hy:
                        dy -= Ly
                    elif dy < -hy:
                        dy += Ly
                if pz:
                    if dz > hz:
                        dz -= Lz
                    elif dz < -hz:
                        dz += Lz
                r2 = (dx * dx + dz * dz) + dy * dy  # einsum f64 order
                if r2 < rc2:
                    if count < cap:
                        oi[count] = a
                        oj[count] = b
                    count += 1
                    if r2 < count_rc2:
                        within += 1
        # Rows that overflowed ``cap`` are rebuilt by the caller's retry.
        if count <= cap:
            for k in range(row + 1, count):
                b = oj[k]
                idx = k
                while idx > row and oj[idx - 1] > b:
                    oj[idx] = oj[idx - 1]
                    idx -= 1
                oj[idx] = b
    offsets[n] = count
    return count, within


@njit(cache=True)
def _max_disp_sq(pos, ref, lengths, origin, periodic):
    """Twin of ``max_disp_sq_f64``: bitwise the numpy skin-check max."""
    best = 0.0
    saw_nan = False
    d = np.empty(3, np.float64)
    for a in range(pos.shape[0]):
        for k in range(3):
            L = lengths[k]
            rel = pos[a, k] - origin[k]
            if periodic[k] and not (rel >= 0.0 and rel < L):
                rel -= np.floor(rel / L) * L
            dx = (rel + origin[k]) - ref[a, k]
            if periodic[k] and not (abs(dx) < 0.25 * L):
                dx -= np.rint(dx / L) * L
            d[k] = dx
        r2 = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
        if r2 > best:
            best = r2
        if r2 != r2:
            saw_nan = True
    return np.nan if saw_nan else best


class NumbaProvider:
    """Uniform provider API over the ``@njit`` kernels.

    Dtype dispatch is numba's: each function specializes per argument
    dtype on first call.  Segment accumulators are float64 literals, so
    float32 inputs accumulate in float64 (at least as accurate as the
    numpy backends' bincount; bounded by the per-precision oracle
    tiers).
    """

    kind = "numba"

    def __init__(self) -> None:
        self.version = numba.__version__
        self._supported = {
            (np.float64, np.float64),
            (np.float32, np.float32),
            (np.float64, np.float32),
        }

    def supports(self, out, values) -> bool:
        return (out.dtype.type, values.dtype.type) in self._supported

    def scatter1(self, out, idx, v) -> None:
        _scatter1(out, idx, v)

    def scatter3(self, out, idx, v) -> None:
        _scatter3(out, idx, v)

    def acc_scaled(self, forces, i, j, dr, f_over_r) -> None:
        _acc_scaled(forces, i, j, dr, f_over_r)

    def acc_pair(self, forces, i, j, fv) -> None:
        _acc_pair(forces, i, j, fv)

    def pair_geom(self, pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr):
        fn = _pair_geom_f32 if pos.dtype == np.float32 else _pair_geom_f64
        # rc2 arrives pre-cast to the position dtype (NEP 50 semantics).
        return int(fn(pos, pi, pj, lengths, periodic, rc2, oi, oj, odr, orr))

    def lj_half(
        self, pos, pi, pj, lengths, periodic, rc2, types, eps, sigma, shift,
        forces, oe, ov,
    ):
        return int(
            _lj_half(
                pos, pi, pj, lengths, periodic, rc2, types, eps, sigma, shift,
                forces, oe, ov,
            )
        )

    def lj_rows(
        self, pos, di, dj, gi, gj, lengths, periodic, rc2, types, eps, sigma,
        shift, forces, energy, virial,
    ):
        return int(
            _lj_rows(
                pos, di, dj, gi, gj, lengths, periodic, rc2, types, eps,
                sigma, shift, forces, energy, virial,
            )
        )

    def cell_csr(
        self, pos, lengths, origin, periodic, rc, count_rc2, oi, oj, offsets
    ):
        count, within = _cell_csr(
            pos, lengths, origin, periodic, rc, count_rc2, oi, oj, offsets
        )
        return int(count), int(within)

    def max_disp_sq(self, pos, ref, lengths, origin, periodic) -> float:
        return float(_max_disp_sq(pos, ref, lengths, origin, periodic))


def make_provider() -> NumbaProvider:
    return NumbaProvider()
