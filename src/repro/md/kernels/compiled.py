"""The ``compiled`` kernel backend: native-code Pair/Neigh hot loops.

The serial neighbor-list build and the pair accumulate dominate
wall-clock on the paper's LJ benchmark (``md.neighbor.busy_frac`` +
``md.pair.busy_frac`` of ``lj_32k`` in ``benchmarks/e2e``); both are
scatter/filter loops numpy cannot fuse.  This backend runs them as
native code from one provider, ``cc``: a C translation unit compiled
on first use with the system C compiler (``$CC`` when set, else
``cc``/``gcc``/``clang``) and bound via ``ctypes``
(:mod:`repro.md.kernels._cc_impl`).

Resolution is lazy (first instantiation).  The provider must pass a
numerical smoke test that exercises each entry point against the numpy
backends — a missing compiler, a failed build or a miscompiled kernel
all demote the backend cleanly: instantiating :class:`CompiledBackend`
raises :class:`BackendUnavailableError` with the reason, and
:func:`repro.md.kernels.get_backend` turns that into a one-time
warning plus a ``numpy_fast`` fallback, so
``REPRO_KERNEL_BACKEND=compiled`` is always safe to set.  To run
without native code, select ``REPRO_KERNEL_BACKEND=numpy_fast``.

The backend subclasses :class:`NumpyFastBackend`: any call whose dtype
combination or memory layout the provider does not cover falls through
to the numpy implementation, so correctness never depends on the
native path being taken.
"""

from __future__ import annotations

import os

import numpy as np

from repro.md.kernels.base import DirectedRows, SortedHalfPairs
from repro.md.kernels.numpy_fast import NumpyFastBackend
from repro.md.precision import PrecisionPolicy

__all__ = [
    "BackendUnavailableError",
    "CompiledBackend",
    "compiled_available",
    "compiled_diagnostic",
    "provider_info",
    "resolve_provider",
]

#: Cached resolution: (env key, provider or None, reason when None).
_resolution: tuple[tuple[str, str], object | None, str | None] | None = None


class BackendUnavailableError(RuntimeError):
    """Raised when the compiled provider does not work; carries why."""


def _env_key() -> tuple[str, str]:
    return (
        os.environ.get("CC", ""),
        os.environ.get("REPRO_COMPILED_CACHE", ""),
    )


def resolve_provider():
    """Resolve (and cache) the compiled provider.

    Returns ``(provider, None)`` on success or ``(None, reason)`` when
    it could not be built or failed its smoke test.  The cache is keyed
    on the controlling environment variables (``$CC`` and the build
    cache directory), so tests that monkeypatch them see a fresh
    resolution without an explicit reset.
    """
    global _resolution
    key = _env_key()
    if _resolution is None or _resolution[0] != key:
        try:
            from repro.md.kernels import _cc_impl

            provider = _cc_impl.CcProvider()
            _smoke_test(provider)
            _resolution = (key, provider, None)
        except Exception as exc:  # no compiler, failed build, bad codegen
            _resolution = (key, None, f"cc: {type(exc).__name__}: {exc}")
    return _resolution[1], _resolution[2]


def _smoke_test(provider) -> None:
    """Run every provider entry point against the numpy backends.

    This is what turns "the library built" into "the library *works*":
    a codegen failure on any kernel disqualifies the provider before it
    can ever touch simulation state.  The float64 scatter paths are
    checked *bitwise* (the parallel-determinism contract); float32 and
    mixed paths to their precision tiers.
    """
    from repro.md.box import Box
    from repro.md.neighbor import cell_list_half_pairs, subdomain_directed_pairs

    rng = np.random.default_rng(1234)
    n, m = 40, 300
    idx = np.sort(rng.integers(0, n, m))
    jdx = rng.integers(0, n, m)

    # Scatter: float64 bitwise vs bincount, mixed widening vs bincount.
    v64 = rng.normal(size=m)
    out = np.zeros(n)
    provider.scatter1(out, idx, v64)
    if not np.array_equal(out, np.bincount(idx, weights=v64, minlength=n)):
        raise AssertionError("scatter1 f64 deviates from bincount")
    v32 = v64.astype(np.float32)
    out = np.zeros(n)
    provider.scatter1(out, idx, v32)
    expect = np.bincount(idx, weights=v32, minlength=n)
    if not np.array_equal(out, expect):
        raise AssertionError("scatter1 mixed deviates from bincount")
    out32 = np.zeros(n, np.float32)
    provider.scatter1(out32, idx, v32)
    np.testing.assert_allclose(out32, expect, rtol=1e-5, atol=1e-6)

    w64 = rng.normal(size=(m, 3))
    out = np.zeros((n, 3))
    provider.scatter3(out, idx, w64)
    for d in range(3):
        if not np.array_equal(
            out[:, d], np.bincount(idx, weights=w64[:, d], minlength=n)
        ):
            raise AssertionError("scatter3 f64 deviates from bincount")

    # Fused pair accumulation vs the numpy_fast formulation.  The i/j
    # sides interleave differently (register segments + inline scatter),
    # so this is summation-order-tolerant, not bitwise.
    dr = rng.normal(size=(m, 3))
    f_over_r = rng.normal(size=m)
    got = np.zeros((n, 3))
    provider.acc_scaled(got, idx, jdx, dr, f_over_r)
    ref_scaled = np.zeros((n, 3))
    NumpyFastBackend().accumulate_scaled_pair_forces(
        ref_scaled, idx, jdx, dr, f_over_r
    )
    np.testing.assert_allclose(got, ref_scaled, rtol=1e-12, atol=1e-12)
    got = np.zeros((n, 3))
    provider.acc_pair(got, idx, jdx, dr)
    ref_pair = np.zeros((n, 3))
    NumpyFastBackend().accumulate_pair_forces(ref_pair, idx, jdx, dr)
    np.testing.assert_allclose(got, ref_pair, rtol=1e-12, atol=1e-12)
    got64 = np.zeros((n, 3))
    provider.acc_scaled(
        got64, idx, jdx, dr.astype(np.float32), f_over_r.astype(np.float32)
    )
    np.testing.assert_allclose(
        got64, _mixed_ref(n, idx, jdx, dr, f_over_r), rtol=1e-5, atol=1e-5
    )
    got32 = np.zeros((n, 3), np.float32)
    provider.acc_scaled(
        got32, idx, jdx, dr.astype(np.float32), f_over_r.astype(np.float32)
    )
    np.testing.assert_allclose(got32, ref_scaled, rtol=1e-4, atol=1e-4)

    # Pair geometry: bitwise vs the numpy_fast op sequence (float64).
    box = Box([7.0, 8.0, 9.0], periodic=(True, True, False))
    pos = rng.uniform(0, 1, (n, 3)) * box.lengths
    pi = np.repeat(np.arange(n, dtype=np.int64), n)[: 4 * m]
    pj = np.tile(np.arange(n, dtype=np.int64), n)[: 4 * m]
    keep = pi != pj
    pi, pj = pi[keep], pj[keep]
    rc = 2.5
    oi = np.empty(len(pi), np.int64)
    oj = np.empty(len(pi), np.int64)
    odr = np.empty((len(pi), 3))
    orr = np.empty(len(pi))
    c = provider.pair_geom(
        pos,
        pi,
        pj,
        box.lengths,
        np.ascontiguousarray(box.periodic, dtype=np.uint8),
        rc * rc,
        oi,
        oj,
        odr,
        orr,
    )
    d = box.minimum_image(pos[pi] - pos[pj])
    r2 = np.einsum("ij,ij->i", d, d)
    k = np.flatnonzero(r2 < rc * rc)
    if not (
        c == len(k)
        and np.array_equal(oi[:c], pi[k])
        and np.array_equal(oj[:c], pj[k])
        and np.array_equal(odr[:c], d[k])
        and np.array_equal(orr[:c], np.sqrt(r2[k]))
    ):
        raise AssertionError("pair_geom f64 deviates from minimum-image oracle")

    # Fused lj/cut: bitwise the unfused sequence it replaces (geometry
    # -> pair_terms -> accumulate, numpy reductions), with two atom
    # types and pre-loaded outputs — the digest chain must not be able
    # to tell which route ran.
    from repro.md.potentials.lj import LennardJonesCut

    pot = LennardJonesCut([1.0, 0.7], [1.0, 1.15], cutoff=rc)
    tables = pot.fused_style().coeffs
    types = rng.integers(0, 2, n)
    lengths, _, periodic = _box_f64(box)
    start = rng.normal(size=(n, 3))
    gi, gj, gr = oi[:c].copy(), oj[:c].copy(), orr[:c].copy()
    energy, f_over_r = pot.pair_terms(
        gr, gr * gr, types[gi], types[gj], None, None
    )
    ref = start.copy()
    provider.acc_scaled(ref, gi, gj, odr[:c].copy(), f_over_r)
    got = start.copy()
    pair_e, pair_w = np.empty(len(pi)), np.empty(len(pi))
    count = provider.lj_half(
        pos, pi, pj, lengths, periodic, rc * rc, types, *tables,
        got, pair_e, pair_w,
    )
    if not (
        count == c
        and np.array_equal(got, ref)
        and np.array_equal(pair_e[:c], energy)
        and np.array_equal(pair_w[:c], f_over_r * (gr * gr))
    ):
        raise AssertionError("fused lj_half deviates from the unfused path")
    # Directed rows: the same pairs read as (head, partner) rows.
    energy, f_over_r = pot.pair_terms(
        np.sqrt(r2[k]), r2[k], types[pi[k]], types[pj[k]], None, None
    )
    ref = [start.copy(), start[:, 0].copy(), start[:, 1].copy()]
    provider.scatter3(ref[0], pi[k], f_over_r[:, None] * d[k])
    provider.scatter1(ref[1], pi[k], 0.5 * energy)
    provider.scatter1(ref[2], pi[k], 0.5 * f_over_r * r2[k])
    got = [start.copy(), start[:, 0].copy(), start[:, 1].copy()]
    count = provider.lj_rows(
        pos, pi, pj, pi, pj, lengths, periodic, rc * rc, types, *tables, *got
    )
    if count != len(k) or not all(map(np.array_equal, got, ref)):
        raise AssertionError("fused lj_rows deviates from the unfused path")

    # CSR build: the rows must arrive exactly as lexsort((j, i)) orders
    # the numpy build's pairs — the neighbor list no longer sorts them —
    # with matching offsets and within-cutoff count, and a too-small
    # buffer must report the true count without writing past it.
    box = Box([9.0, 9.5, 10.0])
    pos = np.ascontiguousarray(rng.uniform(0, 1, (120, 3)) * box.lengths)
    ref_i, ref_j = cell_list_half_pairs(pos, box, 2.2)
    ref_order = np.lexsort((ref_j, ref_i))
    ref_i, ref_j = ref_i[ref_order], ref_j[ref_order]
    d = box.minimum_image(pos[ref_i] - pos[ref_j])
    ref_within = int(np.count_nonzero(np.einsum("ij,ij->i", d, d) < 1.9 * 1.9))
    box_args = _box_f64(box)
    for cap in (len(ref_i) // 2, len(ref_i) + 7):
        oi = np.full(cap + 1, -1, np.int64)
        oj = np.full(cap + 1, -1, np.int64)
        offsets = np.empty(len(pos) + 1, np.int64)
        count, within = provider.cell_csr(
            pos, *box_args, 2.2, 1.9 * 1.9, oi[:cap], oj[:cap], offsets
        )
        if count != len(ref_i) or oi[cap] != -1 or oj[cap] != -1:
            raise AssertionError("cell_csr miscounts or overruns its buffers")
    if not (
        np.array_equal(oi[:count], ref_i)
        and np.array_equal(oj[:count], ref_j)
        and np.array_equal(
            offsets, np.searchsorted(ref_i, np.arange(len(pos) + 1))
        )
        and within == ref_within
    ):
        raise AssertionError(
            "cell_csr deviates from lexsorted cell_list_half_pairs"
        )

    # Directed rows: exactly the numpy half list mirrored and lexsorted
    # by (i, key[j]) under a non-monotone key and an anchor limit (what
    # an engine worker's global ids and owned prefix are), with the
    # same buffer discipline.
    key = rng.permutation(len(pos))
    open_box = Box(box.lengths, periodic=(False,) * 3)
    ref_i, ref_j, _ = subdomain_directed_pairs(
        pos, 2.2, sort_key=key, anchor_limit=70, brute_force_max=0
    )
    d = pos[ref_i] - pos[ref_j]
    inside = np.einsum("ij,ij->i", d, d) < 1.9 * 1.9
    for cap in (len(ref_i) // 2, len(ref_i) + 7):
        oi = np.full(cap + 1, -1, np.int64)
        oj = np.full(cap + 1, -1, np.int64)
        within = np.full(70 + 1, -1, np.int64)
        count = provider.cell_rows(
            pos, *_box_f64(open_box), 2.2, 1.9 * 1.9, key,
            oi[:cap], oj[:cap], within[:70],
        )
        if count != len(ref_i) or not oi[cap] == oj[cap] == within[70] == -1:
            raise AssertionError("cell_rows miscounts or overruns its buffers")
    if not (
        np.array_equal(oi[:count], ref_i)
        and np.array_equal(oj[:count], ref_j)
        and np.array_equal(within[:70], np.bincount(ref_i[inside], minlength=70))
    ):
        raise AssertionError(
            "cell_rows deviates from the mirrored, lexsorted half list"
        )

    # Skin check: bitwise the numpy wrap/minimum-image/einsum maximum.
    moved = pos + rng.normal(scale=0.4, size=pos.shape)
    disp = box.minimum_image(box.wrap(moved) - pos)
    if provider.max_disp_sq(moved, pos, *box_args) != float(
        np.max(np.einsum("ij,ij->i", disp, disp))
    ):
        raise AssertionError("max_disp_sq deviates from the numpy skin check")


def _box_f64(box):
    """``(lengths, origin, periodic)`` as the arrays the native
    neighbor kernels take."""
    return (
        np.ascontiguousarray(box.lengths, dtype=np.float64),
        np.ascontiguousarray(box.origin, dtype=np.float64),
        np.ascontiguousarray(box.periodic, dtype=np.uint8),
    )


#: Stand-in ``types`` argument for one-type styles (never read).
_NO_TYPES = np.zeros(1, np.int64)


def _native(array, dtype) -> bool:
    """True for a C-contiguous ndarray of exactly ``dtype`` — what the
    provider kernels may be handed without a converting copy."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.flags.c_contiguous
    )


def _mixed_ref(n, i, j, dr, f_over_r):
    """numpy_fast MIXED accumulation: f32 products, f64 bincount."""
    out = np.zeros((n, 3))
    w32 = (f_over_r.astype(np.float32)[:, None] * dr.astype(np.float32))
    for d in range(3):
        out[:, d] += np.bincount(i, weights=w32[:, d], minlength=n)
        out[:, d] -= np.bincount(j, weights=w32[:, d], minlength=n)
    return out


def compiled_available() -> bool:
    """True when the native provider built and passed its smoke test."""
    return resolve_provider()[0] is not None


def compiled_diagnostic() -> str:
    """One-line availability status for error messages and bench JSON."""
    provider, reason = resolve_provider()
    if provider is None:
        return f"unavailable: {reason}"
    return f"ok (provider={provider.kind} {provider.version})"


def provider_info() -> dict | None:
    """``{"kind", "version"}`` of the active provider, or ``None``."""
    provider, _ = resolve_provider()
    if provider is None:
        return None
    return {"kind": provider.kind, "version": str(provider.version)}


class CompiledBackend(NumpyFastBackend):
    """Native-code backend for pair forces and neighbor-list builds.

    Subclasses :class:`NumpyFastBackend` so every primitive has a
    correct numpy fallback: the native path is taken only when the
    dtype combination and memory layout are covered by the provider
    (float64, float32, and the MIXED float32-values-into-float64-
    accumulator case; C-contiguous arrays).  In particular the SINGLE
    -policy neighbor-list build (float32 positions) stays on the numpy
    path — pair sets near the cutoff are decided in the storage dtype
    and the compiled build only replicates the float64 semantics
    bitwise.
    """

    name = "compiled"

    def __init__(self) -> None:
        provider, reason = resolve_provider()
        if provider is None:
            raise BackendUnavailableError(reason)
        super().__init__()
        self._impl = provider
        # Pair-geometry output scratch (grow-only, storage-dtype typed).
        self._pg_capacity = 0
        self._pg_i = np.empty(0, np.int64)
        self._pg_j = np.empty(0, np.int64)
        self._pg_dr = np.empty((0, 3))
        self._pg_r = np.empty(0)
        # Neighbor-build output capacity hints from the last builds
        # (half list, directed rows).
        self._nb_hint = 0
        self._rows_hint = 0
        # Fused pair pass: per-pair energy / virial terms (grow-only).
        self._pair_energy = np.empty(0)
        self._pair_virial = np.empty(0)

    def set_policy(self, policy: PrecisionPolicy) -> None:
        if policy.storage_dtype != self.policy.storage_dtype:
            self._pg_capacity = 0
        super().set_policy(policy)

    # ------------------------------------------------------------------
    # Pair geometry
    # ------------------------------------------------------------------
    def _geom_scratch(self, m: int):
        dtype = self.policy.storage_dtype
        if m > self._pg_capacity or self._pg_dr.dtype != dtype:
            capacity = max(m, int(1.5 * self._pg_capacity), 1024)
            self._pg_i = np.empty(capacity, np.int64)
            self._pg_j = np.empty(capacity, np.int64)
            self._pg_dr = np.empty((capacity, 3), dtype)
            self._pg_r = np.empty(capacity, dtype)
            self._pg_capacity = capacity
        return self._pg_i, self._pg_j, self._pg_dr, self._pg_r

    def current_pairs(self, system, neighbors, cutoff=None):
        if neighbors._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        rc = neighbors.cutoff if cutoff is None else float(cutoff)
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        compute_dtype = self.policy.compute_dtype
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0, 3), dtype=compute_dtype),
                np.empty(0, dtype=compute_dtype),
            )
        geometry_dtype = self.policy.storage_dtype
        positions = np.ascontiguousarray(
            system.positions.astype(geometry_dtype, copy=False)
        )
        lengths = np.ascontiguousarray(
            system.box.lengths.astype(geometry_dtype, copy=False)
        )
        periodic = np.ascontiguousarray(system.box.periodic, dtype=np.uint8)
        oi, oj, odr, orr = self._geom_scratch(m)
        # NEP 50: the cutoff compare runs in the geometry dtype with the
        # python-float rc^2 cast down, so pre-cast it here.
        rc2 = geometry_dtype.type(rc * rc)
        c = self._impl.pair_geom(
            positions,
            np.ascontiguousarray(pair_i, dtype=np.int64),
            np.ascontiguousarray(pair_j, dtype=np.int64),
            lengths,
            periodic,
            rc2,
            oi,
            oj,
            odr,
            orr,
        )
        # Compressed copies: scratch is reused next call and must not
        # leak out (same contract as numpy_fast).
        return (
            oi[:c].copy(),
            oj[:c].copy(),
            odr[:c].astype(compute_dtype, copy=True),
            orr[:c].astype(compute_dtype, copy=True),
        )

    # ------------------------------------------------------------------
    # Fused analytic pair styles
    # ------------------------------------------------------------------
    def _lj_arguments(self, style, types):
        """``(rc2, types, eps, sigma, shift)`` for the lj/cut kernels,
        or ``None`` when this backend must not take the fused route."""
        if style.kind != "lj/cut" or not self.policy.is_double:
            return None
        eps, sigma, shift = style.coeffs
        if len(eps) == 1:
            return style.cutoff * style.cutoff, _NO_TYPES, eps, sigma, shift
        # The kernel indexes the tables unchecked; anything the numpy
        # gather would wrap or reject stays on the numpy path.
        if not (
            _native(types, np.int64)
            and len(types)
            and 0 <= types.min()
            and types.max() < len(eps)
        ):
            return None
        return style.cutoff * style.cutoff, types, eps, sigma, shift

    def pair_forces(self, style, system, neighbors):
        """Fused ``lj/cut`` over the stored half list (float64 only)."""
        if neighbors._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        args = self._lj_arguments(style, system.types)
        positions, forces = system.positions, system.forces
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        if args is None or not (
            _native(positions, np.float64)
            and _native(forces, np.float64)
            and _native(pair_i, np.int64)
            and _native(pair_j, np.int64)
        ):
            return None
        m = len(pair_i)
        if m == 0:
            return 0.0, 0.0, 0
        if m > len(self._pair_energy):
            capacity = max(m, int(1.5 * len(self._pair_energy)), 1024)
            self._pair_energy = np.empty(capacity)
            self._pair_virial = np.empty(capacity)
        lengths, _, periodic = _box_f64(system.box)
        count = self._impl.lj_half(
            positions, pair_i, pair_j, lengths, periodic, *args,
            forces, self._pair_energy, self._pair_virial,
        )
        # Pairwise np.sum over the compressed terms, as the unfused
        # path reduces pair_terms' arrays.
        return (
            float(np.sum(self._pair_energy[:count], dtype=np.float64)),
            float(np.sum(self._pair_virial[:count], dtype=np.float64)),
            count,
        )

    def directed_pair_forces(
        self, style, positions, lengths, periodic, rows, types,
        forces, energy, virial,
    ):
        """Fused ``lj/cut`` over directed rows (float64 only)."""
        args = self._lj_arguments(style, types)
        if args is None or not (
            _native(positions, np.float64)
            and all(_native(out, np.float64) for out in (forces, energy, virial))
            and all(_native(index, np.int64) for index in rows)
        ):
            return None
        if len(rows[0]) == 0:
            return 0
        return self._impl.lj_rows(
            positions,
            *rows,
            np.ascontiguousarray(lengths, dtype=np.float64),
            np.ascontiguousarray(periodic, dtype=np.uint8),
            *args,
            forces, energy, virial,
        )

    # ------------------------------------------------------------------
    # Scatter / accumulate
    # ------------------------------------------------------------------
    def _scatter_via_impl(self, out, index, values) -> bool:
        if not (
            isinstance(out, np.ndarray)
            and out.flags.c_contiguous
            and self._impl.supports(out, values)
        ):
            return False
        idx = np.ascontiguousarray(index, dtype=np.int64)
        if values.ndim == 1 and out.ndim == 1:
            self._impl.scatter1(out, idx, np.ascontiguousarray(values))
            return True
        if (
            values.ndim == 2
            and out.ndim == 2
            and values.shape[1] == 3
            and out.shape[1] == 3
        ):
            self._impl.scatter3(out, idx, np.ascontiguousarray(values))
            return True
        return False

    def scatter_add(self, out, index, values):
        values = np.asarray(values)
        if not self._scatter_via_impl(out, index, values):
            super().scatter_add(out, index, values)

    def scatter_add_sorted(self, out, index, values):
        # The serial input-order loop is valid (and bitwise-stable)
        # whether or not the index is sorted, so both entry points
        # share one implementation.
        values = np.asarray(values)
        if not self._scatter_via_impl(out, index, values):
            super().scatter_add_sorted(out, index, values)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        fvec = np.asarray(fvec)
        if (
            len(i) == 0
            or not forces.flags.c_contiguous
            or fvec.ndim != 2
            or fvec.shape[1] != 3
            or not self._impl.supports(forces, fvec)
        ):
            return super().accumulate_pair_forces(forces, i, j, fvec)
        self._impl.acc_pair(
            forces,
            np.ascontiguousarray(i, dtype=np.int64),
            np.ascontiguousarray(j, dtype=np.int64),
            np.ascontiguousarray(fvec),
        )

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        dr = np.asarray(dr)
        f_over_r = np.asarray(f_over_r)
        if (
            len(i) == 0
            or not forces.flags.c_contiguous
            or dr.dtype != f_over_r.dtype
            or not self._impl.supports(forces, f_over_r)
        ):
            return super().accumulate_scaled_pair_forces(forces, i, j, dr, f_over_r)
        self._impl.acc_scaled(
            forces,
            np.ascontiguousarray(i, dtype=np.int64),
            np.ascontiguousarray(j, dtype=np.int64),
            np.ascontiguousarray(dr),
            np.ascontiguousarray(f_over_r),
        )

    # ------------------------------------------------------------------
    # Neighbor-list build
    # ------------------------------------------------------------------
    def neighbor_pairs(self, positions, box, rc, count_cutoff=None):
        """Compiled link-cell CSR build (float64 positions only).

        Returns the half pairs of :func:`repro.md.neighbor.
        cell_list_half_pairs` already in ``np.lexsort((j, i))`` order,
        with row offsets and the within-``count_cutoff`` count, or
        ``None`` to let the caller run the numpy path.
        """
        positions = np.asarray(positions)
        if positions.dtype != np.float64 or positions.ndim != 2:
            return None
        positions = np.ascontiguousarray(positions)
        n = len(positions)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return SortedHalfPairs(empty, empty, offsets, 0)
        lengths, origin, periodic = _box_f64(box)
        count_rc2 = (
            0.0 if count_cutoff is None else float(count_cutoff * count_cutoff)
        )
        volume = float(np.prod(lengths))
        # Half-pair estimate (4pi/6 * rc^3 * n^2 / V), padded; the build
        # reports the true count so one retry always suffices.
        estimate = 16 * n
        if volume > 0:
            estimate += int(2.6 * float(rc) ** 3 * n * n / volume)
        capacity = max(self._nb_hint, estimate, 1024)
        while True:
            # Fresh outputs every build: the list keeps views of them,
            # so nothing is copied out of a scratch buffer afterwards.
            out_i = np.empty(capacity, np.int64)
            out_j = np.empty(capacity, np.int64)
            count, within = self._impl.cell_csr(
                positions, lengths, origin, periodic, float(rc),
                count_rc2, out_i, out_j, offsets,
            )
            if count < 0:  # allocation failure or unmet precondition
                return None
            if count <= capacity:
                break
            capacity = count
        self._nb_hint = count + (count >> 2)
        return SortedHalfPairs(
            out_i[:count],
            out_j[:count],
            offsets,
            None if count_cutoff is None else within,
        )

    def directed_rows(
        self, positions, box, rc, sort_key=None, anchor_limit=None,
        count_cutoff=None,
    ):
        """Compiled directed-row build for an engine worker's local set
        (float64 positions in an open box only): the rows of
        :func:`repro.md.neighbor.subdomain_directed_pairs`, bitwise,
        without the half list, the mirror or the lexsort."""
        positions = np.asarray(positions)
        if (
            positions.dtype != np.float64
            or positions.ndim != 2
            or positions.shape[1] != 3
            or len(positions) == 0
            or box.periodic.any()
        ):
            return None
        positions = np.ascontiguousarray(positions)
        n = len(positions)
        sort_key = (
            np.arange(n, dtype=np.int64)
            if sort_key is None
            else np.ascontiguousarray(sort_key, dtype=np.int64)
        )
        if sort_key.shape != (n,):
            return None
        anchors = n if anchor_limit is None else min(max(int(anchor_limit), 0), n)
        lengths, origin, periodic = _box_f64(box)
        count_rc2 = (
            0.0 if count_cutoff is None else float(count_cutoff * count_cutoff)
        )
        # Directed-row estimate at the mean density over the atoms'
        # extent (the box adds an empty margin): 4pi/3 * rc^3 * n / V
        # per anchor, padded.  Anchors near the surface hold fewer, so a
        # uniform set fits first time; the kernel reports the true count
        # and one retry covers the rest.
        extent = np.maximum(np.ptp(positions, axis=0), float(rc))
        estimate = 16 * anchors + int(
            5.2 * float(rc) ** 3 * n * anchors / float(np.prod(extent))
        )
        capacity = max(self._rows_hint, min(estimate, anchors * (n - 1)), 1024)
        within = np.empty(anchors, np.int64)
        while True:
            out_i = np.empty(capacity, np.int64)
            out_j = np.empty(capacity, np.int64)
            count = self._impl.cell_rows(
                positions, lengths, origin, periodic, float(rc), count_rc2,
                sort_key, out_i, out_j, within,
            )
            if count < 0:  # allocation failure, tied sort keys
                return None
            if count <= capacity:
                break
            capacity = count
        self._rows_hint = count + (count >> 2)
        return DirectedRows(
            out_i[:count],
            out_j[:count],
            None if count_cutoff is None else within,
        )

    def count_pairs_within(self, positions, box, pair_i, pair_j, rc):
        """Count stored pairs within ``rc`` via the bitwise pair-geom
        kernel (float64 only), sparing the stats pass its numpy gather."""
        positions = np.asarray(positions)
        if (
            positions.dtype != np.float64
            or positions.ndim != 2
            or np.dtype(self.policy.storage_dtype) != np.float64
        ):
            return None
        m = len(pair_i)
        if m == 0:
            return 0
        oi, oj, odr, orr = self._geom_scratch(m)
        count = self._impl.pair_geom(
            np.ascontiguousarray(positions),
            np.ascontiguousarray(pair_i, dtype=np.int64),
            np.ascontiguousarray(pair_j, dtype=np.int64),
            np.ascontiguousarray(box.lengths, dtype=np.float64),
            np.ascontiguousarray(box.periodic, dtype=np.uint8),
            np.float64(rc * rc),
            oi,
            oj,
            odr,
            orr,
        )
        return int(count)

    def max_displacement_sq(self, positions, reference, box):
        """Native skin check (float64, C-contiguous ``(n, 3)`` only)."""
        if not (
            isinstance(positions, np.ndarray)
            and positions.dtype == np.float64
            and positions.flags.c_contiguous
            and reference.dtype == np.float64
            and reference.flags.c_contiguous
            and positions.shape == reference.shape
            and positions.ndim == 2
            and positions.shape[1] == 3
            and len(positions) > 0
        ):
            return None
        return self._impl.max_disp_sq(positions, reference, *_box_f64(box))

    @classmethod
    def diagnostic(cls) -> str:
        return compiled_diagnostic()
