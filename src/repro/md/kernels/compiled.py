"""The ``compiled`` kernel backend: native-code Pair/Neigh hot loops.

The serial neighbor-list build and the pair accumulate dominate
wall-clock on the paper's LJ benchmark (``md.neighbor.busy_frac`` +
``md.pair.busy_frac`` of ``lj_32k`` in ``benchmarks/e2e``); both are
scatter/filter loops numpy cannot fuse.  This backend runs them as
native code from one provider, ``cc``: a C translation unit compiled
on first use with the system C compiler (``$CC`` when set, else
``cc``/``gcc``/``clang``) and bound via ``ctypes``
(:mod:`repro.md.kernels._cc_impl`).

Resolution is lazy (first instantiation) and happens once per process
(:func:`resolve_provider`).  The provider must pass a
numerical smoke test that exercises each entry point against the numpy
backends — a missing compiler, a failed build or a miscompiled kernel
all demote the backend cleanly: instantiating :class:`CompiledBackend`
raises :class:`BackendUnavailableError` with the reason, and
:func:`repro.md.kernels.get_backend` turns that into a one-time
warning plus a ``numpy_fast`` fallback whose ``fallback`` attribute
holds the reason, so requesting ``compiled`` is always safe.  To run
without native code, select ``numpy_fast``.

The backend subclasses :class:`NumpyFastBackend`: any call whose dtype
combination or memory layout the provider does not cover falls through
to the numpy implementation, so correctness never depends on the
native path being taken.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.md.box import Box
from repro.md.kernels.base import DirectedRows, SortedHalfPairs
from repro.md.kernels.numpy_fast import NumpyFastBackend

__all__ = [
    "BackendUnavailableError",
    "CompiledBackend",
    "compiled_available",
    "provider_info",
    "resolve_provider",
]

#: Cached resolution, once per process: (provider or None, reason when None).
_resolution: tuple[object | None, str | None] | None = None


class BackendUnavailableError(RuntimeError):
    """Raised when the compiled provider does not work; carries why."""


def resolve_provider():
    """Resolve (and cache, once per process) the compiled provider.

    Returns ``(provider, None)`` on success or ``(None, reason)`` when
    it could not be built or failed its smoke test.  ``$CC`` and
    ``$REPRO_COMPILED_CACHE`` are read on that first call only; code
    that changes them afterwards resets ``_resolution`` to ``None``.
    """
    global _resolution
    if _resolution is None:
        try:
            from repro.md.kernels import _cc_impl

            provider = _cc_impl.CcProvider()
            _smoke_test(provider)
            _resolution = (provider, None)
        except Exception as exc:  # no compiler, failed build, bad codegen
            _resolution = (None, f"cc: {type(exc).__name__}: {exc}")
    return _resolution


def _smoke_test(provider) -> None:
    """Run every instance the provider binds against the numpy backends.

    This is what turns "the library built" into "the library *works*":
    a codegen failure on any kernel disqualifies the provider before it
    can ever touch simulation state.  The loop is over the provider's
    own instance table, each instance under the policy it serves, so
    no kernel is bound without being checked (a row with no check is a
    ``KeyError``): float64 accumulation *bitwise* (the parallel-
    determinism contract), float32 to its policy's tier.
    """
    from repro.md.kernels._cc_impl import KERNELS

    for stem, (instances, _, _) in KERNELS.items():
        for policy in instances.values():
            _SMOKE_CHECKS[stem](provider, stem, policy)


def _check_accumulate(provider, stem, policy):
    """A scatter or pair-accumulate instance against the ``numpy_fast``
    method it stands in for, under the same policy.  Input-order
    scatter is bitwise ``np.bincount`` when the accumulator is float64
    (bincount's always is); the pair passes interleave the i/j sides
    differently (register segments + inline scatter), so they are
    summation-order-tolerant, not bitwise."""
    rng = np.random.default_rng(1234)
    n, m = 40, 300
    i, j = np.sort(rng.integers(0, n, m)), rng.integers(0, n, m)
    vectors = rng.normal(size=(m, 3)).astype(policy.compute_dtype)
    scalars = rng.normal(size=m).astype(policy.compute_dtype)
    method, args = {
        "scatter1": ("scatter_add", (i, scalars)),
        "scatter3": ("scatter_add", (i, vectors)),
        "acc_scaled": ("accumulate_scaled_pair_forces", (i, j, vectors, scalars)),
        "acc_pair": ("accumulate_pair_forces", (i, j, vectors)),
    }[stem]
    shape = (n,) if stem == "scatter1" else (n, 3)
    got, expect = np.zeros((2, *shape), policy.accumulate_dtype)
    getattr(provider, stem)(got, *args)
    reference = NumpyFastBackend()
    reference.set_policy(policy)
    getattr(reference, method)(expect, *args)
    if method == "scatter_add" and policy.accumulate_dtype == np.float64:
        ok = np.array_equal(got, expect)
    else:
        tier = policy.force_rtol
        ok = np.allclose(got, expect, rtol=tier, atol=tier)
    if not ok:
        raise AssertionError(f"{stem} ({policy.mode.value}) deviates from numpy_fast")


_SMOKE_RC = 2.5


def _smoke_pairs(dtype):
    """``(box, pos, pi, pj, keep, dr, r2)``: a stored pair list over a
    partly periodic box in ``dtype``, and the rows (with their geometry)
    that the numpy minimum-image / einsum / cutoff sequence keeps."""
    rng = np.random.default_rng(1234)
    n = 40
    box = Box([7.0, 8.0, 9.0], periodic=(True, True, False))
    pos = (rng.uniform(0, 1, (n, 3)) * box.lengths).astype(dtype)
    pi = np.repeat(np.arange(n, dtype=np.int64), n)[:1200]
    pj = np.tile(np.arange(n, dtype=np.int64), n)[:1200]
    pi, pj = pi[pi != pj], pj[pi != pj]
    dr = box.minimum_image(pos[pi] - pos[pj])
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = np.flatnonzero(r2 < _SMOKE_RC * _SMOKE_RC)
    return box, pos, pi, pj, keep, dr[keep], r2[keep]


def _check_pair_geom(provider, stem, policy):
    """Pair geometry: bitwise the numpy op sequence in the storage dtype."""
    dtype = policy.storage_dtype
    box, pos, pi, pj, keep, dr, r2 = _smoke_pairs(dtype)
    oi, oj = np.empty((2, len(pi)), np.int64)
    odr, orr = np.empty((len(pi), 3), dtype), np.empty(len(pi), dtype)
    c = provider.pair_geom(
        pos, pi, pj, box.lengths.astype(dtype), _box_f64(box)[2],
        dtype.type(_SMOKE_RC * _SMOKE_RC), oi, oj, odr, orr,
    )
    if not (
        c == len(keep)
        and np.array_equal(oi[:c], pi[keep])
        and np.array_equal(oj[:c], pj[keep])
        and np.array_equal(odr[:c], dr)
        and np.array_equal(orr[:c], np.sqrt(r2))
    ):
        raise AssertionError(f"pair_geom ({dtype}) deviates from the numpy oracle")


def _check_lj(provider, stem, policy):
    """Fused lj/cut: bitwise the unfused sequence it replaces (geometry
    -> pair_terms -> accumulate, numpy reductions), with two atom types
    and pre-loaded outputs — the digest chain must not be able to tell
    which route ran."""
    from repro.md.kernels._cc_impl import LJ_BLOCK
    from repro.md.potentials.lj import LennardJonesCut

    box, pos, pi, pj, keep, dr, r2 = _smoke_pairs(policy.storage_dtype)
    lengths, _, periodic = _box_f64(box)
    rng = np.random.default_rng(4321)
    pot = LennardJonesCut([1.0, 0.7], [1.0, 1.15], cutoff=_SMOKE_RC)
    types = rng.integers(0, 2, len(pos))
    start = rng.normal(size=pos.shape)
    head = (lengths, periodic, _SMOKE_RC * _SMOKE_RC, types, *pot.fused_style().coeffs)
    if stem == "lj_half":
        # Three blocks of the kernel, the last one partial.
        m = 2 * LJ_BLOCK + LJ_BLOCK // 4
        inside = keep < m
        pi, pj, keep, dr, r2 = pi[:m], pj[:m], keep[inside], dr[inside], r2[inside]
    gi, gj, r = pi[keep], pj[keep], np.sqrt(r2)
    if stem == "lj_half":
        # The half-list path hands pair_terms r * r, not einsum's r2.
        energy, f_over_r = pot.pair_terms(r, r * r, types[gi], types[gj], None, None)
        ref = [start.copy(), energy, f_over_r * (r * r)]
        provider.acc_scaled(ref[0], gi, gj, dr, f_over_r)
        got = [start.copy(), np.empty(len(pi)), np.empty(len(pi))]
        count = provider.lj_half(pos, pi, pj, *head, *got)
        got[1:] = got[1][:count], got[2][:count]
    else:
        # Directed rows: the same pairs read as (head, partner) rows.
        energy, f_over_r = pot.pair_terms(r, r2, types[gi], types[gj], None, None)
        ref = [start.copy(), start[:, 0].copy(), start[:, 1].copy()]
        provider.scatter3(ref[0], gi, f_over_r[:, None] * dr)
        provider.scatter1(ref[1], gi, 0.5 * energy)
        provider.scatter1(ref[2], gi, 0.5 * f_over_r * r2)
        got = [start.copy(), start[:, 0].copy(), start[:, 1].copy()]
        count = provider.lj_rows(pos, pi, pj, pi, pj, *head, *got)
    if not (count == len(keep) and all(map(np.array_equal, got, ref))):
        raise AssertionError(f"fused {stem} deviates from the unfused path")


def _check_charmm(provider, stem, policy):
    """lj/charmm/coul/long terms: bitwise
    ``CharmmCoulLong.screened_terms`` — the unfused sequence after the
    Ewald factors — over the survivors' ``r`` and ``r * r``, then
    ``acc_scaled`` onto pre-loaded forces, with two atom types,
    charges, pairs on both sides of the switch and of a Coulomb cutoff
    inside the LJ one, for ``alpha == 0`` and for stand-in Ewald
    factors (any numbers do: the kernel only reads them, and scipy
    stays unloaded)."""
    from repro.md.potentials.charmm import CharmmCoulLong

    box, pos, pi, pj, keep, dr, r2 = _smoke_pairs(policy.storage_dtype)
    rng = np.random.default_rng(4321)
    types = rng.integers(0, 2, len(pos))
    charges = rng.normal(size=len(pos))
    start = rng.normal(size=pos.shape)
    i, j, r = pi[keep], pj[keep], np.sqrt(r2)
    for alpha in (0.0, 0.9):
        pot = CharmmCoulLong(
            [0.2, 0.15], [1.0, 1.3], lj_inner=1.6, cutoff=_SMOKE_RC,
            coul_cutoff=2.2, alpha=alpha, coulomb_constant=1.7,
        )
        screening = None
        if alpha > 0.0:
            ar = alpha * r
            screening = (np.exp(-ar) / (1.0 + ar), np.exp(-ar * ar))
        energy, f_over_r = pot.screened_terms(
            r, r * r, types[i], types[j], charges[i], charges[j], screening
        )
        want = [start.copy(), energy, f_over_r, f_over_r * (r * r)]
        provider.acc_scaled(want[0], i, j, dr, f_over_r)
        eps, sigma, scalars = pot.fused_style().coeffs
        got = [start.copy(), *np.empty((3, len(i)))]
        provider.charmm_terms(
            i, j, r, *(screening or (r, r)), types, eps, sigma, charges, scalars,
            *got[1:],
        )
        provider.acc_scaled(got[0], i, j, dr, got[2])
        if not all(a.tobytes() == b.tobytes() for a, b in zip(got, want)):
            raise AssertionError(
                f"charmm_terms (alpha {alpha}) deviates from the unfused path"
            )


def _check_eam(provider, stem, policy):
    """One eam/alloy sweep against its share of ``EAMAlloy.terms`` as
    the compiled body runs it, bitwise, fed the numpy reference's
    inputs (so the message names the sweep that drifted): the survivors'
    geometry and ``exp`` arguments; ``partner_sum``'s two scatters of
    the density; the pair terms, ``acc_scaled``'s force order onto
    pre-loaded forces, and the per-pair ``phi`` and virial."""
    from repro.md.potentials.eam import (
        EAMAlloy,
        EAMParameters,
        embedding,
        radial_exponentials,
    )

    box, pos, pi, pj, keep, dr, r2 = _smoke_pairs(policy.storage_dtype)
    params = EAMParameters(r_e=1.4, cutoff=_SMOKE_RC)
    potential, coef = EAMAlloy(params), _eam_coefficients(params)
    i, j, r = pi[keep], pj[keep], np.sqrt(r2)
    args = np.stack(
        [-decay * (r - params.r_e) for _, decay in radial_exponentials(params)],
        axis=1,
    )
    f, df = potential.density_function(r)
    rho = np.zeros(len(pos))
    provider.scatter1(rho, i, f)
    provider.scatter1(rho, j, f)
    if stem == "eam_geom":
        m = len(pi)
        oi, oj = np.empty((2, m), np.int64)
        odr, orr, oexp = np.empty((m, 3)), np.empty(m), np.empty(3 * m)
        c = provider.eam_geom(
            pos, pi, pj, *_box_f64(box)[::2], _SMOKE_RC * _SMOKE_RC, coef,
            oi, oj, odr, orr, oexp,
        )
        got = (oi[:c], oj[:c], odr[:c], orr[:c], oexp[: 3 * c])
        want = (i, j, dr, r, args.ravel())
    elif stem == "eam_density":
        got = (np.zeros(len(pos)),)
        provider.eam_density(i, j, r, np.exp(args).ravel(), coef, got[0])
        want = (rho,)
    else:
        _, slopes = embedding(rho, params)
        phi, dphi = potential.pair_function(r)
        f_over_r = -(dphi + (slopes[i] + slopes[j]) * df) / r
        start = np.random.default_rng(4321).normal(size=pos.shape)
        want = (start.copy(), phi, f_over_r * (r * r))
        provider.acc_scaled(want[0], i, j, dr, f_over_r)
        got = (start.copy(), np.empty(len(i)), np.empty(len(i)))
        provider.eam_forces(i, j, dr, r, np.exp(args).ravel(), coef, slopes, *got)
    if not all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)
    ):
        raise AssertionError(f"{stem} deviates from the EAM numpy body")


def _smoke_silicon():
    """``(system, neighbors)`` for the Tersoff check: a jittered 64-atom
    diamond cell, open along z, with pre-loaded forces; atom 0's
    nearest bond is stretched to ``R`` (mid-ramp) and the last atom is
    lifted out of everyone's reach (an empty row)."""
    from repro.md.atoms import AtomSystem
    from repro.md.lattice import diamond_positions
    from repro.md.neighbor import NeighborList

    rng = np.random.default_rng(1234)
    pos, cell = diamond_positions(2, 5.431)
    pos += rng.normal(scale=0.08, size=pos.shape)
    box = Box(cell.lengths + [0.0, 0.0, 12.0], periodic=(True, True, False))
    pos[-1, 2] = cell.lengths[2] + 8.0
    bonds = box.minimum_image(pos[0] - pos[1:-1])
    lengths = np.linalg.norm(bonds, axis=1)
    nearest = int(np.argmin(lengths))
    pos[1 + nearest] = pos[0] - 2.85 * bonds[nearest] / lengths[nearest]
    system = AtomSystem(pos, box)
    system.forces[...] = rng.normal(size=pos.shape)
    neighbors = NeighborList(3.0, 0.5, full=True)
    neighbors.build(system)
    return system, neighbors


def _check_tersoff(provider, stem, policy):
    """Fused Tersoff against ``Tersoff.compute``'s numpy body (the
    unfused route) at the 1e-12 tier — libm and numpy round ``exp`` and
    ``pow`` differently, so not bitwise — and bitwise against itself."""
    from repro.md.potentials.tersoff import Tersoff

    system, neighbors = _smoke_silicon()
    start = system.forces.copy()
    pot = Tersoff()
    pot.backend = NumpyFastBackend()
    expect = pot.compute(system, neighbors)
    style = pot.fused_style()
    rows = int(np.diff(neighbors.csr_offsets).max())
    scratch = np.empty(rows * provider.TERSOFF_SLOT_DOUBLES)
    runs = []
    for _ in range(2):
        forces, totals = start.copy(), np.empty(2)
        count = provider.tersoff_full(
            system.positions, neighbors.csr_offsets, neighbors.pair_j,
            *_box_f64(system.box)[::2], style.cutoff * style.cutoff,
            *style.coeffs, scratch, np.empty(rows, np.int64), forces, totals,
        )
        runs.append((count, forces.tobytes(), totals.tobytes()))
    got = (*forces.ravel(), *totals)
    want = (*system.forces.ravel(), expect.energy, expect.virial)
    if not (
        count == expect.interactions
        and runs[0] == runs[1]
        and np.allclose(got, want, rtol=1e-12, atol=1e-12)
    ):
        raise AssertionError("fused tersoff_full deviates from Tersoff.compute")


def _smoke_cells():
    """``(rng, box, pos)``: 120 atoms in a periodic box several cells wide."""
    rng = np.random.default_rng(1234)
    box = Box([9.0, 9.5, 10.0])
    return rng, box, np.ascontiguousarray(rng.uniform(0, 1, (120, 3)) * box.lengths)


def _built_twice(stem, ref_i, ref_j, build) -> bool:
    """``build(out_i, out_j) -> count`` run with half the room the
    reference rows need, then with room to spare: a too-small buffer
    must report the true count without writing past it.  True when the
    second run's rows are the reference's."""
    for cap in (len(ref_i) // 2, len(ref_i) + 7):
        oi, oj = np.full((2, cap + 1), -1, np.int64)
        count = build(oi[:cap], oj[:cap])
        if not (count == len(ref_i) and oi[cap] == oj[cap] == -1):
            raise AssertionError(f"{stem} miscounts or overruns its buffers")
    return np.array_equal(oi[:count], ref_i) and np.array_equal(oj[:count], ref_j)


def _check_brute_csr(provider, stem, policy):
    """All-pairs CSR build: bitwise ``brute_force_pairs`` — its pairs in
    ``np.triu_indices`` order, with matching offsets — over a partly
    periodic box too narrow to bin, with atoms strayed up to 0.7 box
    lengths outside it (the exact minimum image, not the cell builds'
    shift)."""
    from repro.md.neighbor import brute_force_pairs

    rng = np.random.default_rng(1234)
    box = Box([4.5, 5.0, 5.5], periodic=(True, True, False))
    pos = rng.uniform(-0.5, 1.2, (90, 3)) * box.lengths
    ref_i, ref_j = brute_force_pairs(pos, box, 2.2)
    lengths, _, periodic = _box_f64(box)
    offsets = np.empty(len(pos) + 1, np.int64)

    def build(out_i, out_j):
        return provider.brute_csr(
            pos, lengths, periodic, 2.2 * 2.2, out_i, out_j, offsets
        )

    if not (
        _built_twice(stem, ref_i, ref_j, build)
        and np.array_equal(offsets, np.searchsorted(ref_i, np.arange(len(pos) + 1)))
    ):
        raise AssertionError("brute_csr deviates from brute_force_pairs")


def _check_cell_csr(provider, stem, policy):
    """CSR build: the rows must arrive exactly as lexsort((j, i)) orders
    the numpy build's pairs — the neighbor list no longer sorts them —
    with matching offsets, over a grid that takes both image routes:
    x holds 3 cells (compare-and-shift), y 4 with atoms strayed inside
    rc/4 of the box (the hoisted shift) and z 4 with one atom further
    out (the guard falls back to compare-and-shift).  Two atoms in
    neighbouring x cells, 5.0 apart across the box, are 2.0 apart
    through its boundary: the compare-and-shift keeps the pair, a shift
    fixed per pair of cells (0 for these) would lose it."""
    from repro.md.neighbor import cell_list_half_pairs

    rng = np.random.default_rng(1234)
    box = Box([7.0, 9.5, 10.0])
    pos = rng.uniform(0, 1, (150, 3)) * box.lengths
    pos[:2, 1] = -0.2 * 2.2, box.lengths[1] + 0.2 * 2.2
    pos[2, 2] = -0.3 * 2.2
    pos[3:5] = [-0.4, 5.0, 5.0], [4.6, 5.0, 5.0]
    ref_i, ref_j = cell_list_half_pairs(pos, box, 2.2)
    order = np.lexsort((ref_j, ref_i))
    ref_i, ref_j = ref_i[order], ref_j[order]
    offsets = np.empty(len(pos) + 1, np.int64)

    def build(out_i, out_j):
        return provider.cell_csr(pos, *_box_f64(box), 2.2, out_i, out_j, offsets)

    if not (
        _built_twice(stem, ref_i, ref_j, build)
        and np.array_equal(offsets, np.searchsorted(ref_i, np.arange(len(pos) + 1)))
    ):
        raise AssertionError("cell_csr deviates from lexsorted cell_list_half_pairs")


def _check_cell_rows(provider, stem, policy):
    """Directed rows: exactly the numpy half list mirrored and lexsorted
    by (i, key[j]) under a non-monotone key and an anchor limit (what
    an engine worker's global ids and owned prefix are)."""
    from repro.md.neighbor import subdomain_directed_pairs

    rng, box, pos = _smoke_cells()
    key = rng.permutation(len(pos))
    open_box = _box_f64(Box(box.lengths, periodic=(False,) * 3))
    anchors = 70
    ref_i, ref_j = subdomain_directed_pairs(
        pos, 2.2, sort_key=key, anchor_limit=anchors
    )

    def build(out_i, out_j):
        return provider.cell_rows(pos, *open_box, 2.2, key, anchors, out_i, out_j)

    if not _built_twice(stem, ref_i, ref_j, build):
        raise AssertionError("cell_rows deviates from the mirrored, lexsorted half list")


def _check_max_disp_sq(provider, stem, policy):
    """Skin check: bitwise the numpy wrap/minimum-image/einsum maximum."""
    rng, box, pos = _smoke_cells()
    moved = pos + rng.normal(scale=0.4, size=pos.shape)
    disp = box.minimum_image(box.wrap(moved) - pos)
    if provider.max_disp_sq(moved, pos, *_box_f64(box)) != float(
        np.max(np.einsum("ij,ij->i", disp, disp))
    ):
        raise AssertionError("max_disp_sq deviates from the numpy skin check")


def _smoke_mesh(dtype):
    """``(grid, frac, charges, fields)``: 60 atoms in grid units over a
    non-cubic mesh in ``dtype`` — on a node, at the origin, one ulp
    below the far corner and unwrapped on either side of the box."""
    rng = np.random.default_rng(1234)
    grid = (8, 10, 12)
    frac = rng.uniform(-6.0, 18.0, (60, 3))
    frac[:3] = [[3.0, 4.0, 5.0], [0.0, 0.0, 0.0], np.nextafter(grid, 0.0)]
    fields = [rng.normal(size=grid).astype(dtype) for _ in range(3)]
    return grid, frac.astype(dtype), rng.normal(size=60).astype(dtype), fields


def _check_pppm(provider, stem, policy):
    """PPPM spread and gather: bitwise the numpy bodies at the policy's
    dtypes, orders 1 and 5, into pre-loaded outputs (a spread adds to
    the mesh; a gather overwrites)."""
    from repro.md.kspace.pppm import interpolate_fields, mesh_stencil, spread_charges

    ct, acc = policy.compute_dtype, policy.accumulate_dtype
    grid, frac, charges, fields = _smoke_mesh(ct)
    start = np.random.default_rng(4321).normal(size=grid).astype(acc)
    for order in (1, 5):
        stencil = mesh_stencil(frac, order, grid)
        scratch = np.empty(3 * order * len(frac), np.int64), np.empty(
            3 * order * len(frac), ct
        )
        if stem == "pppm_spread":
            expect, got = start.copy(), start.copy()
            spread_charges(expect, stencil, charges)
            provider.pppm_spread(got, frac, charges, order, *scratch)
        else:
            expect, got = np.zeros(frac.shape, ct), np.ones(frac.shape, ct)
            interpolate_fields(expect, stencil, fields)
            provider.pppm_gather(got, fields, frac, order, *scratch, acc)
        if got.tobytes() != expect.tobytes():
            raise AssertionError(
                f"{stem} ({policy.mode.value}, order {order}) deviates from "
                "the numpy body"
            )


#: The check behind each row of the provider's instance table.
_SMOKE_CHECKS = {
    "scatter1": _check_accumulate,
    "scatter3": _check_accumulate,
    "acc_scaled": _check_accumulate,
    "acc_pair": _check_accumulate,
    "pppm_spread": _check_pppm,
    "pppm_gather": _check_pppm,
    "pair_geom": _check_pair_geom,
    "lj_half": _check_lj,
    "lj_rows": _check_lj,
    "eam_geom": _check_eam,
    "eam_density": _check_eam,
    "eam_forces": _check_eam,
    "tersoff_full": _check_tersoff,
    "charmm_terms": _check_charmm,
    "brute_csr": _check_brute_csr,
    "cell_csr": _check_cell_csr,
    "cell_rows": _check_cell_rows,
    "max_disp_sq": _check_max_disp_sq,
}


def _box_f64(box):
    """``(lengths, origin, periodic)`` as the arrays the native
    neighbor kernels take."""
    return (
        np.ascontiguousarray(box.lengths, dtype=np.float64),
        np.ascontiguousarray(box.origin, dtype=np.float64),
        np.ascontiguousarray(box.periodic, dtype=np.uint8),
    )


def _eam_coefficients(params) -> np.ndarray:
    """The eam kernels' coefficient vector for ``EAMParameters``:
    ``r_e``, the cutoff, then ``(A, -k, g_c, k g_c)`` per truncated
    exponential, each number formed as ``eam.truncated_exponential``
    forms it."""
    from repro.md.potentials.eam import cutoff_value, radial_exponentials

    coef = [params.r_e, params.cutoff]
    for amplitude, decay in radial_exponentials(params):
        g_c = cutoff_value(amplitude, decay, params.r_e, params.cutoff)
        coef += [amplitude, -decay, g_c, decay * g_c]
    return np.array(coef)


#: Stand-in ``types`` argument for one-type styles (never read).
_NO_TYPES = np.zeros(1, np.int64)

#: Where ``m`` sits in a ``tersoff`` style's parameter vector (the
#: :class:`~repro.md.potentials.tersoff.TersoffParameters` field order).
_TERSOFF_M = 11

#: Length of an ``lj/charmm/coul/long`` style's scalar vector, and where
#: ``alpha`` sits in it (``CH_*`` in the C source).
_CHARMM_SCALARS = 8
_CHARMM_ALPHA = 6


def _native(array, dtype) -> bool:
    """True for a C-contiguous ndarray of exactly ``dtype`` — what the
    provider kernels may be handed without a converting copy."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.flags.c_contiguous
    )


def compiled_available() -> bool:
    """True when the native provider built and passed its smoke test."""
    return resolve_provider()[0] is not None


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
        self.provider = provider.kind
        # Pair-geometry output scratch (grow-only, storage-dtype typed).
        self._geom = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty((0, 3)),
            np.empty(0),
        )
        # Output capacity hints from each native neighbor build's last run.
        self._capacity_hint = {"brute_csr": 0, "cell_csr": 0, "cell_rows": 0}
        # Fused pair pass: per-pair energy / virial / f_over_r terms
        # (grow-only).
        self._pair_energy = np.empty(0)
        self._pair_virial = np.empty(0)
        self._pair_f_over_r = np.empty(0)
        # Fused EAM pass: three exp arguments per pair, then their
        # exponentials (grow-only).
        self._exp_args = np.empty(0)
        # Fused Tersoff pass: one row's bonds (grow-only).
        self._row_atoms = np.empty(0, np.int64)
        self._row_scratch = np.empty(0)
        # PPPM stencils: mesh indices and weights (grow-only).
        self._stencil = (np.empty(0, np.int64), np.empty(0))

    @property
    def scratch_pairs(self) -> int:
        # The numpy fallbacks' scratch, the native geometry's and the
        # fused pair pass's, whichever this run has grown.
        return max(self._capacity, len(self._geom[0]), len(self._pair_energy))

    # ------------------------------------------------------------------
    # Pair geometry
    # ------------------------------------------------------------------
    def _geom_scratch(self, m):
        """``(i, j, dr, r)`` geometry output scratch for ``m`` stored
        pairs, storage-dtype typed (grow-only)."""
        dtype = self.policy.storage_dtype
        if m > len(self._geom[0]) or self._geom[2].dtype != dtype:
            capacity = max(m, int(1.5 * len(self._geom[0])), 1024)
            self._geom = (
                np.empty(capacity, np.int64),
                np.empty(capacity, np.int64),
                np.empty((capacity, 3), dtype),
                np.empty(capacity, dtype),
            )
        return self._geom

    def _pair_geom(self, positions, box, pair_i, pair_j, rc):
        """``(count, i, j, dr, r)`` of the stored pairs within ``rc``,
        by the ``pair_geom`` kernel in the storage dtype.  The outputs
        are scratch the next call overwrites; their first ``count``
        rows are valid."""
        dtype = self.policy.storage_dtype
        self._geom_scratch(len(pair_i))
        count = self._impl.pair_geom(
            np.ascontiguousarray(positions, dtype=dtype),
            np.ascontiguousarray(pair_i, dtype=np.int64),
            np.ascontiguousarray(pair_j, dtype=np.int64),
            np.ascontiguousarray(box.lengths, dtype=dtype),
            np.ascontiguousarray(box.periodic, dtype=np.uint8),
            # NEP 50: the cutoff compare runs in the geometry dtype with
            # the python-float rc^2 cast down, so pre-cast it here.
            dtype.type(rc * rc),
            *self._geom,
        )
        return (count, *self._geom)

    def current_pairs(self, system, neighbors, cutoff=None):
        if neighbors._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        rc = neighbors.cutoff if cutoff is None else float(cutoff)
        c, oi, oj, odr, orr = self._pair_geom(
            system.positions, system.box, neighbors.pair_i, neighbors.pair_j, rc
        )
        compute_dtype = self.policy.compute_dtype
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
    @staticmethod
    def _type_index(types, n_types):
        """``types`` as the kernels' index into ``(n_types, n_types)``
        tables — ``_NO_TYPES`` for one type, which the kernels read as
        "ignore atom types" — or ``None`` when they cannot index the
        tables by it."""
        if n_types == 1:
            return _NO_TYPES
        # The kernels index the tables unchecked; anything the numpy
        # gather would wrap or reject stays on the numpy path.
        if not (
            _native(types, np.int64)
            and len(types)
            and 0 <= types.min()
            and types.max() < n_types
        ):
            return None
        return types

    def _lj_arguments(self, style, types):
        """``(rc2, types, eps, sigma, shift)`` for the lj/cut kernels,
        or ``None`` when they cannot index the style's tables by
        ``types``."""
        eps, sigma, shift = style.coeffs
        types = self._type_index(types, len(eps))
        if types is None:
            return None
        return style.cutoff * style.cutoff, types, eps, sigma, shift

    def pair_forces(self, style, rows):
        """Fused pass over a row view (float64 only): ``lj/cut`` over a
        half list or an engine worker's rows, ``eam/alloy`` and
        ``lj/charmm/coul/long`` over a half list, ``tersoff`` over a
        full list (none of the three over a worker's rows, which run
        the body: EAM's scatters there are not the head-only owner
        order, Tersoff's three-atom scatter is not owner-ordered, and
        CHARMM's owner pass is left to the body).

        Which route runs is settled before anything is written, from
        the configuration alone — style, row kind, precision policy,
        array dtypes and layout — never from an array value.
        """
        fused = {
            ("lj/cut", "half"): self._lj_half,
            ("lj/cut", "owner"): self._lj_rows,
            ("eam/alloy", "half"): self._eam_half,
            ("lj/charmm/coul/long", "half"): self._charmm_half,
            ("tersoff", "full"): self._tersoff_full,
        }.get((style.kind, rows.kind))
        if fused is None or not self.policy.is_double:
            return None
        return fused(style, rows)

    @staticmethod
    def _stored_natively(rows) -> bool:
        """True when a stored-list view's arrays can go to the kernels
        as they are."""
        system, neighbors = rows.system, rows.neighbors
        return (
            _native(system.positions, np.float64)
            and _native(system.forces, np.float64)
            and _native(neighbors.pair_i, np.int64)
            and _native(neighbors.pair_j, np.int64)
        )

    def _pair_terms_scratch(self, m):
        """``(energy, virial, f_over_r)`` per-pair output scratch for
        ``m`` stored pairs (grow-only)."""
        if m > len(self._pair_energy):
            capacity = max(m, int(1.5 * len(self._pair_energy)), 1024)
            self._pair_energy = np.empty(capacity)
            self._pair_virial = np.empty(capacity)
            self._pair_f_over_r = np.empty(capacity)
        return self._pair_energy, self._pair_virial, self._pair_f_over_r

    def _lj_half(self, style, rows):
        system, neighbors = rows.system, rows.neighbors
        args = self._lj_arguments(style, system.types)
        if args is None or not self._stored_natively(rows):
            return None
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        if m == 0:
            return 0
        energy, virial, _ = self._pair_terms_scratch(m)
        lengths, _, periodic = _box_f64(system.box)
        count = self._impl.lj_half(
            system.positions, pair_i, pair_j, lengths, periodic, *args,
            system.forces, energy, virial,
        )
        # The compressed per-pair terms reduce through the body's verbs.
        rows.add_energy(None, energy[:count])
        rows.add_virial(None, virial[:count])
        return count

    def _eam_half(self, style, rows):
        """``EAMAlloy.terms`` over a half list, bitwise: the kernels do
        the arithmetic, numpy's ``exp``, the embedding and the ``np.sum``
        reductions stay the body's own."""
        from repro.md.potentials.eam import EAMParameters, embedding

        (vector,) = style.coeffs
        if not (
            self._stored_natively(rows)
            and _native(vector, np.float64)
            and vector.shape == (len(fields(EAMParameters)),)
        ):
            return None
        system, neighbors = rows.system, rows.neighbors
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        if m == 0:
            return 0
        params = EAMParameters(*vector.tolist())
        coef = _eam_coefficients(params)
        i, j, dr, r = self._geom_scratch(m)
        if 3 * m > len(self._exp_args):
            self._exp_args = np.empty(max(3 * m, int(1.5 * len(self._exp_args))))
        energy, virial, _ = self._pair_terms_scratch(m)
        lengths, _, periodic = _box_f64(system.box)
        rc = float(style.cutoff)
        count = self._impl.eam_geom(
            system.positions, pair_i, pair_j, lengths, periodic, rc * rc, coef,
            i, j, dr, r, self._exp_args,
        )
        if count == 0:
            # No pair inside the cutoff: the body skips the embedding.
            return 0
        i, j, dr, r = i[:count], j[:count], dr[:count], r[:count]
        e = self._exp_args[: 3 * count]
        np.exp(e, out=e)
        rho = np.zeros(system.n_atoms)
        self._impl.eam_density(i, j, r, e, coef, rho)
        embedding_energy, slopes = embedding(rho, params)
        rows.add_atom_energy(embedding_energy)
        self._impl.eam_forces(
            i, j, dr, r, e, coef, np.ascontiguousarray(slopes, np.float64),
            system.forces, energy, virial,
        )
        rows.add_energy(None, energy[:count])
        rows.add_virial(None, virial[:count])
        return count

    def _charmm_half(self, style, rows):
        """``CharmmCoulLong.terms`` over a half list, bitwise: the
        ``pair_geom`` kernel into scratch, the body's own ``erfc`` and
        ``exp`` (``charmm.ewald_screening``), ``charmm_terms`` for the
        rest of ``pair_terms``, ``acc_scaled`` for the forces — what the
        body's ``add_radial`` runs here — and the body's ``np.sum``
        reductions."""
        from repro.md.potentials.charmm import ewald_screening

        eps, sigma, scalars = style.coeffs
        system, neighbors = rows.system, rows.neighbors
        charges = system.charges
        types = self._type_index(system.types, len(eps))
        if types is None or not (
            self._stored_natively(rows)
            and _native(charges, np.float64)
            and charges.shape == (system.n_atoms,)
            and _native(scalars, np.float64)
            and scalars.shape == (_CHARMM_SCALARS,)
        ):
            return None
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        if m == 0:
            return 0
        count, i, j, dr, r = self._pair_geom(
            system.positions, system.box, pair_i, pair_j, style.cutoff
        )
        if count == 0:
            return 0
        i, j, dr, r = i[:count], j[:count], dr[:count], r[:count]
        alpha = float(scalars[_CHARMM_ALPHA])
        # With alpha == 0 the kernel reads neither factor.
        erfc_ar, gauss = ewald_screening(alpha, r) if alpha > 0.0 else (r, r)
        energy, virial, f_over_r = (
            out[:count] for out in self._pair_terms_scratch(m)
        )
        self._impl.charmm_terms(
            i, j, r, erfc_ar, gauss, types, eps, sigma, charges, scalars,
            energy, f_over_r, virial,
        )
        self._impl.acc_scaled(system.forces, i, j, dr, f_over_r)
        rows.add_energy(None, energy)
        rows.add_virial(None, virial)
        return count

    def _tersoff_full(self, style, rows):
        system, neighbors = rows.system, rows.neighbors
        (params,) = style.coeffs
        offsets = neighbors.csr_offsets
        n = system.n_atoms
        if not (
            self._stored_natively(rows)
            and system.positions.shape == system.forces.shape == (n, 3)
            and _native(offsets, np.int64)
            and len(offsets) == n + 1
            and _native(params, np.float64)
            and params.shape == (14,)
            and params[_TERSOFF_M] in (1.0, 3.0)
        ):
            return None
        # Row scratch sized from the longest *stored* row, so the kernel
        # never allocates and no row can overrun it.
        longest = int(np.diff(offsets).max(initial=0))
        if longest > len(self._row_atoms):
            capacity = max(longest, 2 * len(self._row_atoms), 32)
            self._row_atoms = np.empty(capacity, np.int64)
            self._row_scratch = np.empty(
                capacity * self._impl.TERSOFF_SLOT_DOUBLES
            )
        lengths, _, periodic = _box_f64(system.box)
        totals = np.empty(2)
        count = self._impl.tersoff_full(
            system.positions, offsets, neighbors.pair_j, lengths, periodic,
            style.cutoff * style.cutoff, params,
            self._row_scratch, self._row_atoms, system.forces, totals,
        )
        rows.energy += float(totals[0])
        rows.virial += float(totals[1])
        return count

    def _lj_rows(self, style, rows):
        lists = rows.lists
        # The rows an owned atom heads: (di, dj, gdi, gdj), a prefix.
        heads = tuple(
            index[: lists.n_owned_rows]
            for index in (lists.di, lists.dj, lists.gdi, lists.gdj)
        )
        slots = (rows.forces, rows.energy, rows.virial)
        args = self._lj_arguments(style, rows.per_atom("types"))
        if args is None or not (
            _native(rows.positions, np.float64)
            and all(_native(slot, np.float64) for slot in slots)
            and all(_native(index, np.int64) for index in heads)
        ):
            return None
        if len(heads[0]) == 0:
            return 0
        return self._impl.lj_rows(
            rows.positions,
            *heads,
            np.ascontiguousarray(rows.lengths, dtype=np.float64),
            np.ascontiguousarray(rows.periodic, dtype=np.uint8),
            *args,
            *slots,
        )

    # ------------------------------------------------------------------
    # PPPM particle <-> mesh
    # ------------------------------------------------------------------
    def _stencil_scratch(self, frac, order):
        """``(nodes, weights)`` scratch for ``3 * order`` stencil points
        of every atom at ``frac``'s dtype (grow-only)."""
        size = 3 * order * len(frac)
        nodes, weights = self._stencil
        if size > len(nodes) or weights.dtype != frac.dtype:
            self._stencil = (np.empty(size, np.int64), np.empty(size, frac.dtype))
        return self._stencil

    @staticmethod
    def _mesh_coordinates(frac, order) -> bool:
        """True when ``frac`` is a C-contiguous ``(N, 3)`` array and
        ``order`` an int (the kernels decline, before writing, an order
        outside the ones PPPM supports)."""
        return (
            isinstance(frac, np.ndarray)
            and frac.flags.c_contiguous
            and frac.ndim == 2
            and frac.shape[1] == 3
            and isinstance(order, int)
        )

    def pppm_spread(self, mesh, frac, charges, order):
        """Native charge spreading, bitwise the body at every precision:
        declined unless the ``(frac, mesh)`` dtypes are an accumulate
        instance and every array is native."""
        if not (
            self._mesh_coordinates(frac, order)
            and _native(charges, frac.dtype)
            and charges.shape == (len(frac),)
            and isinstance(mesh, np.ndarray)
            and mesh.ndim == 3
            and mesh.size > 0
            and mesh.flags.c_contiguous
            and self._impl.supports(mesh, frac)
        ):
            return None
        status = self._impl.pppm_spread(
            mesh, frac, charges, order, *self._stencil_scratch(frac, order)
        )
        return None if status < 0 else mesh

    def pppm_gather(self, efield, frac, fields, order):
        """Native field interpolation, bitwise the body at every
        precision: declined unless ``efield`` and the three fields are
        native in ``frac``'s dtype, the policy's compute dtype (its
        instance is the policy's)."""
        if not (
            self._mesh_coordinates(frac, order)
            and _native(efield, frac.dtype)
            and efield.shape == frac.shape
            and len(fields) == 3
            and all(_native(field, frac.dtype) for field in fields)
            and fields[0].ndim == 3
            and fields[0].size > 0
            and fields[0].shape == fields[1].shape == fields[2].shape
            and frac.dtype == self.policy.compute_dtype
        ):
            return None
        status = self._impl.pppm_gather(
            efield, fields, frac, order, *self._stencil_scratch(frac, order),
            self.policy.accumulate_dtype,
        )
        return None if status < 0 else efield

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
    def _fitted(self, stem, estimate, build):
        """The native builds' capacity protocol around ``build(out_i,
        out_j) -> count``: fresh outputs every time (the caller keeps
        views of them, so nothing is copied out of scratch afterwards),
        sized by ``estimate`` or the last build's count plus a quarter.
        A kernel reports the true count even when it did not fit, so one
        retry always suffices; a negative count (allocation failure,
        unmet precondition, tied sort keys) gives ``None``, else
        ``(out_i[:count], out_j[:count])``."""
        capacity = max(self._capacity_hint[stem], estimate, 1024)
        while True:
            out_i = np.empty(capacity, np.int64)
            out_j = np.empty(capacity, np.int64)
            count = build(out_i, out_j)
            if count < 0:
                return None
            if count <= capacity:
                break
            capacity = count
        self._capacity_hint[stem] = count + (count >> 2)
        return out_i[:count], out_j[:count]

    def neighbor_pairs(self, positions, box, rc, *, brute=False):
        """Compiled half-pair build (float64 ``(n, 3)`` positions only),
        as CSR rows with their offsets: with ``brute`` the all-pairs
        search of :func:`repro.md.neighbor.brute_force_pairs`, bitwise
        (``brute_csr``, which takes any box), else the pairs of
        :func:`repro.md.neighbor.cell_list_half_pairs` in
        ``np.lexsort((j, i))`` order (``cell_csr``, which declines a
        grid it cannot bin).  ``None`` lets the caller run the numpy
        path.
        """
        positions = np.asarray(positions)
        if (
            positions.dtype != np.float64
            or positions.ndim != 2
            or positions.shape[1] != 3
        ):
            return None
        positions = np.ascontiguousarray(positions)
        n = len(positions)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return SortedHalfPairs(empty, empty, offsets)
        lengths, origin, periodic = _box_f64(box)
        volume = float(np.prod(lengths))
        # Half-pair estimate (4pi/6 * rc^3 * n^2 / V), padded.
        estimate = 16 * n
        if volume > 0:
            estimate += int(2.6 * float(rc) ** 3 * n * n / volume)
        if brute:
            # brute_force_pairs compares with its own python rc * rc.
            rc2 = float(rc) * float(rc)
            stem, estimate = "brute_csr", min(estimate, n * (n - 1) // 2)

            def build(out_i, out_j):
                return self._impl.brute_csr(
                    positions, lengths, periodic, rc2, out_i, out_j, offsets
                )
        else:
            stem = "cell_csr"

            def build(out_i, out_j):
                return self._impl.cell_csr(
                    positions, lengths, origin, periodic, float(rc),
                    out_i, out_j, offsets,
                )
        built = self._fitted(stem, estimate, build)
        return None if built is None else SortedHalfPairs(*built, offsets)

    def directed_rows(self, positions, box, rc, sort_key=None, anchor_limit=None):
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
        # Directed-row estimate at the mean density over the atoms'
        # extent (the box adds an empty margin): 4pi/3 * rc^3 * n / V
        # per anchor, padded.  Anchors near the surface hold fewer, so a
        # uniform set fits first time.
        extent = np.maximum(np.ptp(positions, axis=0), float(rc))
        estimate = 16 * anchors + int(
            5.2 * float(rc) ** 3 * n * anchors / float(np.prod(extent))
        )
        built = self._fitted(
            "cell_rows",
            min(estimate, anchors * (n - 1)),
            lambda out_i, out_j: self._impl.cell_rows(
                positions, lengths, origin, periodic, float(rc),
                sort_key, anchors, out_i, out_j,
            ),
        )
        return None if built is None else DirectedRows(*built)

    def max_displacement_sq(self, positions, reference, box):
        """Native skin check (float64, C-contiguous ``(n, 3)`` only)."""
        if not (
            _native(positions, np.float64)
            and _native(reference, np.float64)
            and positions.shape == reference.shape
            and positions.ndim == 2
            and positions.shape[1] == 3
            and len(positions) > 0
        ):
            return None
        return self._impl.max_disp_sq(positions, reference, *_box_f64(box))
