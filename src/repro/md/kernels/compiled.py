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
combination or memory layout the provider's entry refuses (it returns
:data:`~repro.md.kernels.base.DECLINED`) falls through to the numpy
implementation, so correctness never depends on the native path being
taken.
"""

from __future__ import annotations

from dataclasses import fields
from functools import wraps
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from repro.md.box import Box
from repro.md.kernels.base import DECLINED, CsrRows
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
    """Run every instance the provider binds against its row's declaration.

    This is what turns "the library built" into "the library *works*":
    a codegen failure on any kernel disqualifies the provider before it
    can ever touch simulation state.  The loop is over the provider's
    own instance table, each instance under the policy it serves, so
    no kernel is bound without being checked (a row with no declaration
    is refused by name).
    """
    from repro.md.kernels._cc_impl import KERNELS

    # Every instance draws from a generator seeded as
    # ``np.random.default_rng(1234)`` seeds one, hashing the seed once.
    seed = np.random.SeedSequence(1234)
    for stem, (instances, _, _) in KERNELS.items():
        for val, acc in instances:
            rng = np.random.Generator(np.random.PCG64(seed))
            _check(provider, stem, val, acc, rng)


class _Case(NamedTuple):
    """One ``KERNELS`` row's smoke declaration.

    ``inputs(rng, policy)`` builds fresh arguments, every float dtype
    from the policy and pre-loaded outputs included.
    ``reference(provider, a)`` runs first and leaves them as it found
    them (it adds onto copies of pre-loaded outputs, and may use
    instances checked before its row); ``call(provider, a)`` then runs
    the kernel on them.  Each returns the tuple of what it produced, the
    count included.  ``contract``, or a function of the policy naming
    it, is ``"bitwise"``, ``"tier"`` (within the policy's
    ``force_rtol``), ``"repeatable"`` (within 1e-12, and a second call
    bitwise the first: such a call copies what it writes) or
    ``"builder"`` (:func:`_built_twice`).  ``scratch`` holds the
    signature positions of written arguments that are not results.
    """

    inputs: Callable
    call: Callable
    reference: Callable
    contract: str | Callable
    scratch: tuple[int, ...] = ()


def _check(provider, stem, val, acc, rng) -> None:
    """One instance against its row's declaration, under the policy it
    serves: ``AssertionError`` naming the symbol when it deviates."""
    from repro.md.kernels._cc_impl import KERNELS, symbol

    case = _SMOKE_CASES.get(stem)
    if case is None:
        raise LookupError(f"the KERNELS row {stem!r} has no smoke declaration")
    policy = KERNELS[stem][0][val, acc]
    a, (contract, tier) = case.inputs(rng, policy), _contract(case, policy)
    if contract == "builder":
        holds = _built_twice(provider, case, a)
    else:
        want, got = case.reference(provider, a), case.call(provider, a)
        holds = _agree(got, want, tier) and (
            contract != "repeatable" or _agree(got, case.call(provider, a))
        )
    if not holds:
        reference = case.reference.__name__.lstrip("_")
        raise AssertionError(f"{symbol(stem, val, acc)} deviates from {reference}")


def _contract(case, policy) -> tuple[str, float]:
    """``case``'s contract under ``policy`` and its tolerance (0 if exact)."""
    name = case.contract(policy) if callable(case.contract) else case.contract
    return name, {"tier": policy.force_rtol, "repeatable": 1e-12}.get(name, 0.0)


def _agree(got, want, tier=0.0) -> bool:
    """Item for item the same shape and within ``tier``, or with no tier
    the same dtype, shape and bytes."""
    return len(got) == len(want) and all(
        np.shape(x) == np.shape(y) and np.allclose(x, y, rtol=tier, atol=tier)
        if tier
        else (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for x, y in zip(map(np.asarray, got), map(np.asarray, want))
    )


def _built_twice(provider, case, a) -> bool:
    """A native build's capacity protocol: ``case.call`` given partners
    room ``out`` of half what the reference's CSR rows ``(offsets,
    partners)`` need, then of room to spare.  A too-small buffer must
    report the true count without writing past it; the second run's
    ``(count, offsets)`` and partners must be the reference's."""
    ref_offsets, ref_partners = case.reference(provider, a)
    for cap in (len(ref_partners) // 2, len(ref_partners) + 7):
        room = np.full(cap + 1, -1, np.int64)
        count, offsets = case.call(provider, SimpleNamespace(**vars(a), out=room[:cap]))
        if not (count == len(ref_partners) and room[cap] == -1):
            return False
    return _agree((offsets, room[:count]), (ref_offsets, ref_partners))


def _written(result, *outputs):
    """What a kernel produced: ``(result, *outputs)``, or the outputs
    alone when it returns nothing."""
    return outputs if result is None else (result, *outputs)


def _counted(count, *per_pair):
    """A kernel's survivor ``count`` and its per-pair outputs cut to it."""
    return count, *(out[:count] for out in per_pair)


def _accumulate_inputs(rng, policy):
    """300 pairs over 40 atoms (``i`` sorted, as a half list's) with
    per-pair vectors and scalars in the compute dtype, and zeroed
    per-atom outputs in the accumulate dtype."""
    n, m = 40, 300
    compute, accumulate = policy.compute_dtype, policy.accumulate_dtype
    return SimpleNamespace(
        policy=policy, i=np.sort(rng.integers(0, n, m)), j=rng.integers(0, n, m),
        vectors=rng.normal(size=(m, 3)).astype(compute),
        scalars=rng.normal(size=m).astype(compute),
        atoms=np.zeros(n, accumulate), forces=np.zeros((n, 3), accumulate),
    )


def _accumulating(stem, method, out, *names, contract="tier"):
    """A scatter or pair-accumulate row: the kernel and the ``numpy_fast``
    ``method`` it stands in for, under the same policy, each add the
    inputs ``names`` into ``out``.  The pair passes interleave the i/j
    sides differently (register segments + inline scatter), so they are
    summation-order-tolerant, not bitwise."""

    def add(kernel, into, a):
        kernel(into, *(getattr(a, name) for name in names))
        return (into,)

    def numpy_fast(provider, a):
        reference = NumpyFastBackend()
        reference.set_policy(a.policy)
        return add(getattr(reference, method), getattr(a, out).copy(), a)

    def call(provider, a):
        return add(getattr(provider, stem), getattr(a, out), a)

    return _Case(_accumulate_inputs, call, numpy_fast, contract)


def _bincount_exact(policy) -> str:
    """Input-order scatter is bitwise ``np.bincount`` when the
    accumulator is float64 (bincount's always is)."""
    return "bitwise" if policy.accumulate_dtype == np.float64 else "tier"


_SMOKE_RC = 2.5


def _pair_inputs(rng, policy):
    """A stored list of ``2 LJ_BLOCK + LJ_BLOCK / 4`` pairs (three
    ``lj_half`` blocks, the last one partial) over 40 atoms of two types
    in a partly periodic box, in the storage dtype, with charges,
    pre-loaded forces and per-atom tallies, and the survivors ``(i, j,
    dr, r2, r)`` as the numpy minimum-image / einsum / cutoff sequence
    keeps them.  Atoms 1-4 sit 1.0, 1.9, 2.3 and 2.45 from atom 0: pairs
    below CHARMM's switch, inside it on both sides of its Coulomb
    cutoff, and just inside the cutoff.  The stored pairs are row-major
    (``pi`` their heads) and ``offsets`` are their CSR rows: rows 0, 9,
    10 and 17 are empty (leading, and between full ones), as are those
    past the last pair, and row 16 straddles the first block boundary."""
    from repro.md.kernels._cc_impl import LJ_BLOCK

    n, dtype, rc2 = 40, policy.storage_dtype, _SMOKE_RC * _SMOKE_RC
    accumulate = policy.accumulate_dtype
    box = Box([7.0, 8.0, 9.0], periodic=(True, True, False))
    pos = rng.uniform(0, 1, (n, 3)) * box.lengths
    pos[1:5] = pos[0] + [[1.0, 0, 0], [0, -1.9, 0], [-2.3, 0, 0], [0, 0, 2.45]]
    pos = pos.astype(dtype)
    pi, pj = np.divmod(np.arange(n * n), n)
    headed = (pi != pj) & ~np.isin(pi, (0, 9, 10, 17))
    stored = np.flatnonzero(headed)[: 2 * LJ_BLOCK + LJ_BLOCK // 4]
    m = len(stored)
    a = SimpleNamespace(pos=pos, pi=pi[stored], pj=pj[stored])
    a.offsets = np.searchsorted(a.pi, np.arange(n + 1))
    a.types = rng.integers(0, 2, n)
    a.types[:2] = 0, 1
    a.charges, a.forces = rng.normal(size=n), rng.normal(size=(n, 3)).astype(accumulate)
    a.tallies = rng.normal(size=(2, n)).astype(accumulate)
    a.terms = np.empty((2, m), accumulate)
    a.head = box.lengths.astype(dtype), _box_f64(box)[2], dtype.type(rc2)
    a.geometry = (
        *np.empty((2, m), np.int64), np.empty((m, 3), dtype), np.empty(m, dtype)
    )
    dr = box.minimum_image(pos[a.pi] - pos[a.pj])
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = r2 < rc2
    a.i, a.j, a.dr, a.r2 = a.pi[keep], a.pj[keep], dr[keep], r2[keep]
    a.r = np.sqrt(a.r2)
    return a


def _numpy_geometry(provider, a):
    return len(a.i), a.i, a.j, a.dr, a.r


def _prune_inputs(rng, policy):
    """The pair inputs with pre-loaded inner rows: offsets and room for
    every stored partner."""
    a = _pair_inputs(rng, policy)
    a.inner = np.full(len(a.offsets), -1), np.full(len(a.pj), -1)
    return a


def _pruned(count, offsets, partners):
    """A prune's count, its offsets and its partners cut to the count."""
    return count, offsets, partners[:count]


def _survivors_as_rows(provider, a):
    """The stored pairs the numpy geometry keeps, as CSR rows."""
    return len(a.j), np.searchsorted(a.i, np.arange(len(a.pos) + 1)), a.j


def _lj_inputs(rng, policy):
    """The pair inputs with a two-type lj/cut style and its tables."""
    from repro.md.potentials.lj import LennardJonesCut

    a = _pair_inputs(rng, policy)
    a.lj = LennardJonesCut([1.0, 0.7], [1.0, 1.15], cutoff=_SMOKE_RC)
    eps, sigma, shift = _lj_tables(a.lj)
    a.tables = a.types, len(eps), eps, sigma, shift
    return a


def _unfused_lj(provider, a):
    """What the fused half-list pass replaces: ``pair_terms`` over ``r``
    and ``r * r`` (not einsum's ``r2``), then ``acc_scaled`` onto the
    pre-loaded forces — the digest chain must not be able to tell which
    route ran."""
    i, j, r = a.i, a.j, a.r
    energy, f_over_r = a.lj.pair_terms(r, r * r, a.types[i], a.types[j], None, None)
    forces = a.forces.copy()
    provider.acc_scaled(forces, i, j, a.dr, f_over_r)
    return len(i), energy, f_over_r * (r * r), forces


def _owner_inputs(rng, policy):
    """The lj/cut inputs read as an engine worker's rows: atoms
    ``[0, n_owned)`` owned (rows 0, 9, 10 and 17 among them empty), the
    full rows past them ghost-headed, and every local atom's position at
    its global id ``gids`` in a ``world`` array twice as long."""
    a = _lj_inputs(rng, policy)
    n = len(a.pos)
    a.n_owned, a.gids = 24, rng.choice(2 * n, n, replace=False)
    a.world = rng.uniform(0, 1, (2 * n, 3)).astype(a.pos.dtype)
    a.world[a.gids] = a.pos
    return a


def _unfused_lj_rows(provider, a):
    """The pairs of the owned rows read as directed (head, partner)
    rows: ``pair_terms`` over ``r`` and einsum's ``r2``, each term
    scattered onto its head's pre-loaded forces and tallies."""
    owned = a.i < a.n_owned
    i, j, r, r2, dr = a.i[owned], a.j[owned], a.r[owned], a.r2[owned], a.dr[owned]
    energy, f_over_r = a.lj.pair_terms(r, r2, a.types[i], a.types[j], None, None)
    forces, (e, v) = a.forces.copy(), a.tallies.copy()
    provider.scatter3(forces, i, f_over_r[:, None] * dr)
    provider.scatter1(e, i, 0.5 * energy)
    provider.scatter1(v, i, 0.5 * f_over_r * r2)
    return len(i), forces, e, v


def _eam_inputs(rng, policy):
    """The pair inputs with eam/alloy parameters, the kernels' coefficient
    vector and, as ``EAMAlloy.terms`` forms them on the compiled body,
    what each sweep is fed — the reference's own inputs, so a message
    names the sweep that drifted: the ``exp`` arguments (three per
    survivor) and their exponentials, the density of ``partner_sum``'s
    two input-order scatters, and its embedding slopes."""
    from repro.md.potentials import eam

    a = _pair_inputs(rng, policy)
    a.params = params = eam.EAMParameters(r_e=1.4, cutoff=_SMOKE_RC)
    a.eam, a.coef = eam.EAMAlloy(params), _eam_coefficients(params)
    decays = [decay for _, decay in eam.radial_exponentials(params)]
    a.args = np.stack([-decay * (a.r - params.r_e) for decay in decays], axis=1)
    a.e, a.exps = np.exp(a.args), np.empty((len(a.pi), 3), policy.storage_dtype)
    f, a.df = a.eam.density_function(a.r)
    a.rho, a.density = np.zeros((2, len(a.pos)), policy.accumulate_dtype)
    np.add.at(a.rho, a.i, f)
    np.add.at(a.rho, a.j, f)
    a.slopes = eam.embedding(a.rho, params)[1]
    a.pair_terms = np.empty((2, len(a.i)), policy.accumulate_dtype)
    return a


def _survivors_and_exp_arguments(provider, a):
    return len(a.i), a.i, a.j, a.dr, a.r, a.args


def _partner_sum(provider, a):
    return (a.rho,)


def _eam_pair_terms(provider, a):
    """The pair terms, ``acc_scaled``'s force order onto the pre-loaded
    forces, and the per-pair ``phi`` and virial."""
    phi, dphi = a.eam.pair_function(a.r)
    f_over_r = -(dphi + (a.slopes[a.i] + a.slopes[a.j]) * a.df) / a.r
    forces = a.forces.copy()
    provider.acc_scaled(forces, a.i, a.j, a.dr, f_over_r)
    return forces, phi, f_over_r * (a.r * a.r)


def _charmm_inputs(rng, policy):
    """The pair inputs with lj/charmm/coul/long at ``alpha`` 0 and 0.9,
    its Coulomb cutoff inside the LJ one, and stand-in Ewald factors
    (any numbers do: the kernel only reads them, and scipy stays
    unloaded)."""
    from repro.md.potentials.charmm import CharmmCoulLong

    a = _pair_inputs(rng, policy)
    a.styles = [
        CharmmCoulLong(
            [0.2, 0.15], [1.0, 1.3], lj_inner=1.6, cutoff=_SMOKE_RC,
            coul_cutoff=2.2, alpha=alpha, coulomb_constant=1.7,
        )
        for alpha in (0.0, 0.9)
    ]
    ar = a.styles[1].alpha * a.r
    a.screening = [None, (np.exp(-ar) / (1.0 + ar), np.exp(-ar * ar))]
    return a


def _charmm_terms(provider, a):
    out = ()
    for style, screening in zip(a.styles, a.screening):
        eps, sigma = _f64(style.eps_table, style.sigma_table)
        terms = np.empty((3, len(a.i)))
        provider.charmm_terms(
            a.i, a.j, a.r, *(screening or (a.r, a.r)), a.types, len(eps), eps,
            sigma, a.charges, style.screened_constants(), *terms,
        )
        out += tuple(terms)
    return out


def _screened_terms(provider, a):
    """``CharmmCoulLong.screened_terms`` — the unfused sequence after
    the Ewald factors — over the survivors' ``r`` and ``r * r``."""
    i, j, r, out = a.i, a.j, a.r, ()
    for style, screening in zip(a.styles, a.screening):
        energy, f_over_r = style.screened_terms(
            r, r * r, a.types[i], a.types[j], a.charges[i], a.charges[j], screening
        )
        out += energy, f_over_r, f_over_r * (r * r)
    return out


def _silicon_inputs(rng, policy):
    """A jittered 64-atom diamond cell, open along z, its full neighbor
    list and pre-loaded forces, and the fused Tersoff pass's arguments;
    atom 0's nearest bond is stretched to ``R`` (mid-ramp) and the last
    atom is lifted out of everyone's reach (an empty row)."""
    from repro.md.atoms import AtomSystem
    from repro.md.kernels._cc_impl import CcProvider
    from repro.md.lattice import diamond_positions
    from repro.md.neighbor import NeighborList
    from repro.md.potentials.tersoff import Tersoff

    pos, cell = diamond_positions(2, 5.431)
    pos += rng.normal(scale=0.08, size=pos.shape)
    box = Box(cell.lengths + [0.0, 0.0, 12.0], periodic=(True, True, False))
    pos[-1, 2] = cell.lengths[2] + 8.0
    bonds = box.minimum_image(pos[0] - pos[1:-1])
    lengths = np.linalg.norm(bonds, axis=1)
    nearest = int(np.argmin(lengths))
    pos[1 + nearest] = pos[0] - 2.85 * bonds[nearest] / lengths[nearest]
    system = AtomSystem(pos, box, dtype=policy.storage_dtype)
    forces = rng.normal(size=pos.shape).astype(policy.accumulate_dtype)
    neighbors = NeighborList(3.0, 0.5, full=True)
    neighbors.build(system)
    potential, rows = Tersoff(), int(np.diff(neighbors.csr_offsets).max())
    fused = (
        system.positions, neighbors.csr_offsets, neighbors.csr_neighbors,
        *_box_f64(box)[::2], potential.cutoff * potential.cutoff,
        _tersoff_vector(potential.params), rows,
        np.empty(rows * CcProvider.TERSOFF_SLOT_DOUBLES), np.empty(rows, np.int64),
    )
    return SimpleNamespace(
        system=system, neighbors=neighbors, forces=forces, fused=fused
    )


def _tersoff_full(provider, a):
    forces, totals = a.forces.copy(), np.empty(2)
    return provider.tersoff_full(*a.fused, forces, totals), forces, totals


def _tersoff_compute(provider, a):
    """``Tersoff.compute``'s numpy body (the unfused route) onto the
    pre-loaded forces — libm and numpy round ``exp`` and ``pow``
    differently, so the fused pass is not bitwise it."""
    from repro.md.potentials.tersoff import Tersoff

    potential = Tersoff()
    potential.backend = NumpyFastBackend()
    a.system.forces[...] = a.forces
    result = potential.compute(a.system, a.neighbors)
    totals = np.array([result.energy, result.virial])
    return result.interactions, a.system.forces.copy(), totals


def _brute_inputs(rng, policy):
    """90 atoms in a partly periodic box too narrow to bin, strayed up to
    0.7 box lengths outside it on either side (the exact minimum image,
    not the cell builds' shift)."""
    box = Box([4.5, 5.0, 5.5], periodic=(True, True, False))
    frac = rng.uniform(-0.7, 1.7, (90, 3))
    frac[:2] = [[-0.7], [1.7]]
    pos = (frac * box.lengths).astype(policy.storage_dtype)
    offsets = np.full(len(pos) + 1, -1, np.int64)
    return SimpleNamespace(pos=pos, box=box, rc=2.2, offsets=offsets)


def _brute_force_pairs(provider, a):
    """Its pairs, in ``np.triu_indices`` order, as CSR rows."""
    from repro.md.neighbor import brute_force_pairs

    i, j = brute_force_pairs(a.pos, a.box, a.rc)
    return np.searchsorted(i, np.arange(len(a.pos) + 1)), j


def _cell_csr_inputs(rng, policy):
    """150 atoms over a grid that takes both image routes: x holds 3
    cells (compare-and-shift), y 4 with atoms strayed inside rc/4 of the
    box (the hoisted shift) and z 4 with one atom further out (the guard
    falls back to compare-and-shift).  Two atoms in neighbouring x
    cells, 5.0 apart across the box, are 2.0 apart through its boundary:
    the compare-and-shift keeps the pair, a shift fixed per pair of
    cells (0 for these) would lose it."""
    box = Box([7.0, 9.5, 10.0])
    pos = rng.uniform(0, 1, (150, 3)) * box.lengths
    pos[:2, 1] = -0.2 * 2.2, box.lengths[1] + 0.2 * 2.2
    pos[2, 2] = -0.3 * 2.2
    pos[3:5] = [-0.4, 5.0, 5.0], [4.6, 5.0, 5.0]
    pos, offsets = pos.astype(policy.storage_dtype), np.full(len(pos) + 1, -1, np.int64)
    return SimpleNamespace(pos=pos, box=box, rc=2.2, offsets=offsets)


def _lexsorted_cell_pairs(provider, a):
    """The CSR rows exactly as ``lexsort((j, i))`` orders the numpy
    build's pairs — the neighbor list no longer sorts them."""
    from repro.md.neighbor import cell_list_half_pairs

    i, j = cell_list_half_pairs(a.pos, a.box, a.rc)
    order = np.lexsort((j, i))
    return np.searchsorted(i[order], np.arange(len(a.pos) + 1)), j[order]


def _cell_inputs(rng, policy):
    """120 atoms in a periodic box several cells wide and the same atoms
    moved (the skin check's input), with a non-monotone sort key and an
    anchor limit (what an engine worker's global ids and owned prefix
    are)."""
    box = Box([9.0, 9.5, 10.0])
    pos = rng.uniform(0, 1, (120, 3)) * box.lengths
    moved = pos + rng.normal(scale=0.4, size=pos.shape)
    return SimpleNamespace(
        pos=pos.astype(policy.storage_dtype), moved=moved.astype(policy.storage_dtype),
        box=box, open_box=_box_f64(Box(box.lengths, periodic=(False,) * 3)), rc=2.2,
        key=rng.permutation(len(pos)), anchors=70,
        offsets=np.full(len(pos) + 1, -1, np.int64),
    )


def _mirrored_half_list(provider, a):
    """The numpy half list mirrored and lexsorted by ``(i, key[j])``."""
    from repro.md.neighbor import subdomain_directed_pairs

    return subdomain_directed_pairs(a.pos, a.rc, sort_key=a.key, anchor_limit=a.anchors)


def _numpy_skin_check(provider, a):
    """The wrap / minimum-image / einsum maximum."""
    disp = a.box.minimum_image(a.box.wrap(a.moved) - a.pos)
    return (float(np.max(np.einsum("ij,ij->i", disp, disp))),)


def _mesh_inputs(rng, policy):
    """60 atoms in grid units over a non-cubic mesh in the compute dtype
    — on a node, at the origin, one ulp below the far corner and
    unwrapped on either side of the box — with charges and three fields
    in that dtype, and per order a pre-loaded mesh in the accumulate
    dtype (a spread adds to it) and field output (a gather overwrites
    it)."""
    compute, grid = policy.compute_dtype, (8, 10, 12)
    frac = rng.uniform(-6.0, 18.0, (60, 3)).astype(compute)
    frac[:2] = [3.0, 4.0, 5.0], [0.0, 0.0, 0.0]
    frac[2] = np.nextafter(np.array(grid, compute), compute.type(0.0))
    frac[3:5] = [-5.5, -0.5, -3.0], [15.5, 10.5, 17.0]
    mesh = rng.normal(size=grid).astype(policy.accumulate_dtype)
    return SimpleNamespace(
        frac=frac, charges=rng.normal(size=60).astype(compute),
        fields=[rng.normal(size=grid).astype(compute) for _ in range(3)],
        mesh={1: mesh.copy(), 5: mesh}, dims=np.array(grid, np.int64),
        efield={order: np.ones(frac.shape, compute) for order in (1, 5)},
    )


def _orders_1_and_5(route):
    """``route(provider, a, order)`` at orders 1 and 5, concatenated."""
    return wraps(route)(lambda p, a: route(p, a, 1) + route(p, a, 5))


def _stencil(a, order):
    """``(nodes, weights)`` scratch for the mesh kernels at ``order``."""
    size = 3 * order * len(a.frac)
    return np.empty(size, np.int64), np.empty(size, a.frac.dtype)


@_orders_1_and_5
def _spread_charges(provider, a, order):
    from repro.md.kspace.pppm import mesh_stencil, spread_charges

    mesh = a.mesh[order].copy()
    spread_charges(mesh, mesh_stencil(a.frac, order, mesh.shape), a.charges)
    return 0, mesh


@_orders_1_and_5
def _interpolate_fields(provider, a, order):
    from repro.md.kspace.pppm import interpolate_fields, mesh_stencil

    efield, shape = np.zeros_like(a.efield[order]), a.fields[0].shape
    interpolate_fields(efield, mesh_stencil(a.frac, order, shape), a.fields)
    return 0, efield


#: One declaration per row of the provider's instance table.
_SMOKE_CASES = {
    "scatter1": _accumulating(
        "scatter1", "scatter_add", "atoms", "i", "scalars", contract=_bincount_exact
    ),
    "scatter3": _accumulating(
        "scatter3", "scatter_add", "forces", "i", "vectors", contract=_bincount_exact
    ),
    "acc_scaled": _accumulating(
        "acc_scaled", "accumulate_scaled_pair_forces", "forces", "i", "j", "vectors",
        "scalars",
    ),
    "acc_pair": _accumulating(
        "acc_pair", "accumulate_pair_forces", "forces", "i", "j", "vectors"
    ),
    "pppm_spread": _Case(_mesh_inputs, _orders_1_and_5(lambda p, a, order: _written(
        p.pppm_spread(a.mesh[order], a.dims, a.frac, a.charges, order,
                      *_stencil(a, order)), a.mesh[order],
    )), _spread_charges, "bitwise", scratch=(6, 7)),
    "pppm_gather": _Case(_mesh_inputs, _orders_1_and_5(lambda p, a, order: _written(
        p.pppm_gather(a.efield[order], *a.fields, a.dims, a.frac, order,
                      *_stencil(a, order)), a.efield[order],
    )), _interpolate_fields, "bitwise", scratch=(8, 9)),
    "pair_geom": _Case(_pair_inputs, lambda p, a: _counted(
        p.pair_geom(a.pos, a.offsets, a.pj, *a.head, *a.geometry), *a.geometry
    ), _numpy_geometry, "bitwise"),
    "lj_half": _Case(_lj_inputs, lambda p, a: _counted(p.lj_half(
        a.pos, a.offsets, a.pj, *a.head, *a.tables, a.forces, *a.terms
    ), *a.terms) + (a.forces,), _unfused_lj, "bitwise"),
    "lj_rows": _Case(_owner_inputs, lambda p, a: _written(p.lj_rows(
        a.world, a.gids, a.offsets, a.n_owned, a.pj, *a.head, *a.tables, a.forces,
        *a.tallies,
    ), a.forces, *a.tallies), _unfused_lj_rows, "bitwise"),
    "prune_rows": _Case(_prune_inputs, lambda p, a: _pruned(
        p.prune_rows(a.pos, a.offsets, a.pj, *a.head, *a.inner), *a.inner
    ), _survivors_as_rows, "bitwise"),
    "eam_geom": _Case(_eam_inputs, lambda p, a: _counted(
        p.eam_geom(a.pos, a.offsets, a.pj, *a.head, a.coef, *a.geometry, a.exps),
        *a.geometry, a.exps,
    ), _survivors_and_exp_arguments, "bitwise"),
    "eam_density": _Case(_eam_inputs, lambda p, a: _written(
        p.eam_density(a.i, a.j, a.r, a.e, a.coef, a.density), a.density
    ), _partner_sum, "bitwise"),
    "eam_forces": _Case(_eam_inputs, lambda p, a: _written(p.eam_forces(
        a.i, a.j, a.dr, a.r, a.e, a.coef, a.slopes, a.forces, *a.pair_terms
    ), a.forces, *a.pair_terms), _eam_pair_terms, "bitwise"),
    "tersoff_full": _Case(
        _silicon_inputs, _tersoff_full, _tersoff_compute, "repeatable", scratch=(9, 10)
    ),
    "charmm_terms": _Case(_charmm_inputs, _charmm_terms, _screened_terms, "bitwise"),
    "brute_csr": _Case(_brute_inputs, lambda p, a: _written(p.brute_csr(
        a.pos, *_box_f64(a.box)[::2], a.rc * a.rc, a.out, a.offsets
    ), a.offsets), _brute_force_pairs, "builder"),
    "cell_csr": _Case(_cell_csr_inputs, lambda p, a: _written(p.cell_csr(
        a.pos, *_box_f64(a.box), a.rc, a.out, a.offsets
    ), a.offsets), _lexsorted_cell_pairs, "builder"),
    "cell_rows": _Case(_cell_inputs, lambda p, a: _written(p.cell_rows(
        a.pos, *a.open_box, a.rc, a.key, a.anchors, a.out, a.offsets
    ), a.offsets), _mirrored_half_list, "builder"),
    "max_disp_sq": _Case(_cell_inputs, lambda p, a: _written(
        p.max_disp_sq(a.moved, a.pos, *_box_f64(a.box))
    ), _numpy_skin_check, "bitwise"),
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


def _tersoff_vector(params) -> np.ndarray:
    """The ``tersoff_full`` kernel's parameter vector for
    ``TersoffParameters``: its fields in declaration order, the order of
    ``TS_*`` in the C source."""
    return np.array([getattr(params, field.name) for field in fields(params)], float)


def _f64(*tables) -> tuple[np.ndarray, ...]:
    """Coefficient tables as the kernels read them: float64, C-contiguous."""
    return tuple(np.ascontiguousarray(table, dtype=np.float64) for table in tables)


def _lj_tables(potential) -> tuple[np.ndarray, ...]:
    """``(epsilon, sigma, energy shift)`` of an lj/cut potential, the
    ``(n_types, n_types)`` tables its body reads."""
    return _f64(potential.eps_table, potential.sigma_table, potential.shift_table)


#: Stand-in ``types`` argument for one-type tables (never read).
_NO_TYPES = np.zeros(1, np.int64)


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
    correct numpy fallback.  A method checks only what no ``KERNELS``
    signature states — shapes, row offsets, type indices, the precision
    policy; the provider's entry refuses every dtype combination and
    memory layout its row does not cover with ``DECLINED``, which a
    primitive reads as "run the fallback" and a hook as "return
    ``None``".  In particular the SINGLE-policy neighbor-list build
    (float32 positions) stays on the numpy path — pair sets near the
    cutoff are decided in the storage dtype and the compiled build only
    replicates the float64 semantics bitwise.
    """

    name = "compiled"

    def __init__(self) -> None:
        provider, reason = resolve_provider()
        if provider is None:
            raise BackendUnavailableError(reason)
        super().__init__()
        self._impl = provider
        self.provider = provider.kind
        # Output capacity hints from each native neighbor build's last run.
        self._capacity_hint = {"brute_csr": 0, "cell_csr": 0, "cell_rows": 0}

    # ------------------------------------------------------------------
    # Pair geometry
    # ------------------------------------------------------------------
    def _geom_scratch(self, m):
        """``(i, j, dr, r)`` geometry output scratch for ``m`` stored
        pairs, storage-dtype typed."""
        dtype = self.policy.storage_dtype
        return (
            self._scratch("pair.i", m, np.int64),
            self._scratch("pair.j", m, np.int64),
            self._scratch("pair.dr", m, dtype, 3),
            self._scratch("pair.r", m, dtype),
        )

    def _pair_geom(self, positions, box, rows, rc):
        """``(count, i, j, dr, r)`` of the pairs of the CSR ``rows``
        within ``rc``, by the ``pair_geom`` kernel in the storage dtype,
        or ``None`` when it declines the rows.  The outputs are scratch
        the next call overwrites; their first ``count`` rows are
        valid."""
        dtype = self.policy.storage_dtype
        geometry = self._geom_scratch(len(rows[1]))
        count = self._impl.pair_geom(
            np.ascontiguousarray(positions, dtype=dtype),
            *rows,
            np.ascontiguousarray(box.lengths, dtype=dtype),
            np.ascontiguousarray(box.periodic, dtype=np.uint8),
            # NEP 50: the cutoff compare runs in the geometry dtype with
            # the python-float rc^2 cast down, so pre-cast it here.
            dtype.type(rc * rc),
            *geometry,
        )
        return None if count is DECLINED else (count, *geometry)

    def current_pairs(self, system, neighbors, cutoff=None):
        stored = self._csr_rows(
            neighbors.csr_offsets, neighbors.csr_neighbors, system.n_atoms
        )
        rc = neighbors.cutoff if cutoff is None else float(cutoff)
        geometry = (
            None
            if neighbors._positions_at_build is None or stored is None
            else self._pair_geom(system.positions, system.box, stored, rc)
        )
        if geometry is None:
            return super().current_pairs(system, neighbors, cutoff)
        c, oi, oj, odr, orr = geometry
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
        "ignore atom types" — or ``None`` when a type is out of their
        range."""
        if n_types == 1:
            return _NO_TYPES
        # The kernels index the tables unchecked; anything the numpy
        # gather would wrap or reject stays on the numpy path.
        if not (len(types) and 0 <= types.min() and types.max() < n_types):
            return None
        return types

    def _lj_arguments(self, potential, types):
        """``(rc2, types, nt, eps, sigma, shift)`` for the lj/cut
        kernels, or ``None`` when they cannot index the potential's
        ``(nt, nt)`` tables by ``types``."""
        eps, sigma, shift = _lj_tables(potential)
        n_types = len(eps)
        types = self._type_index(types, n_types)
        if types is None:
            return None
        rc = potential.cutoff
        return rc * rc, types, n_types, eps, sigma, shift

    def pair_forces(self, potential, rows):
        """Fused pass over a row view (float64 only), by the route
        :attr:`_ROUTES` names for the potential's closed form and the
        row kind: ``lj/cut`` over a half list or an engine worker's
        rows, ``eam/alloy`` and ``lj/charmm/coul/long`` over a half
        list, ``tersoff`` over a full list (none of the three over a
        worker's rows, which run the body: EAM's scatters there are not
        the head-only owner order, Tersoff's three-atom scatter is not
        owner-ordered, and CHARMM's owner pass is left to the body).

        Which route runs is settled before anything is written, from
        the configuration alone — potential, row kind, precision
        policy, array dtypes and layout — never from an array value: a
        route checks shapes and offsets, and every system write follows
        its last native call, so an entry that declines leaves nothing
        behind.
        """
        route = self._ROUTES.get((potential.closed_form, rows.kind))
        if route is None or not self.policy.is_double:
            return None
        return route(self, potential, rows)

    @staticmethod
    def _csr_rows(offsets, partners, n):
        """``(offsets, partners)``: CSR rows over ``n`` atoms — a stored
        list's, an engine worker's or those ``prune_rows`` sweeps — or
        ``None`` when their offsets do not bound the partners (the
        kernels index both unchecked)."""
        if not (offsets.shape == (n + 1,) and offsets[-1] == len(partners)):
            return None
        return offsets, partners

    @classmethod
    def _rows_read(cls, rows, cutoff=None):
        """``(offsets, partners)``: the CSR rows a fused pass over a
        stored list reads — its stored rows, or with a ``cutoff`` its
        inner rows where they hold every pair now inside it — or
        ``None`` when the positions, forces or stored rows are not
        shaped for the atoms.  Either way the survivors, and their
        order, are the stored list's."""
        system, neighbors = rows.system, rows.neighbors
        stored = cls._csr_rows(
            neighbors.csr_offsets, neighbors.csr_neighbors, system.n_atoms
        )
        if stored is None or not (
            system.positions.shape == system.forces.shape == (system.n_atoms, 3)
        ):
            return None
        inner = None if cutoff is None else neighbors.inner_rows(system, cutoff)
        return inner or stored

    def _pair_terms_scratch(self, m):
        """``(energy, virial, f_over_r)`` per-pair output scratch for
        ``m`` stored pairs."""
        return tuple(
            self._scratch(name, m, np.float64)
            for name in ("pair.energy", "pair.virial", "pair.f_over_r")
        )

    def _lj_half(self, potential, rows):
        system = rows.system
        args = self._lj_arguments(potential, system.types)
        stored = self._rows_read(rows)
        if args is None or stored is None:
            return None
        m = len(stored[1])
        if m == 0:
            return 0
        energy, virial, _ = self._pair_terms_scratch(m)
        lengths, _, periodic = _box_f64(system.box)
        count = self._impl.lj_half(
            system.positions, *stored, lengths, periodic, *args,
            system.forces, energy, virial,
        )
        if count is DECLINED:
            return None
        # The compressed per-pair terms reduce through the body's verbs.
        rows.add_energy(None, energy[:count])
        rows.add_virial(None, virial[:count])
        return count

    def _eam_half(self, potential, rows):
        """``EAMAlloy.terms`` over a half list, bitwise: the kernels do
        the arithmetic, numpy's ``exp``, the embedding and the ``np.sum``
        reductions stay the body's own."""
        from repro.md.potentials.eam import embedding

        params, rc = potential.params, float(potential.cutoff)
        csr = self._rows_read(rows, rc)
        if csr is None:
            return None
        system = rows.system
        offsets, partners = csr
        m = len(partners)
        if m == 0:
            return 0
        coef = _eam_coefficients(params)
        i, j, dr, r = self._geom_scratch(m)
        exps = self._scratch("pair.exp", m, np.float64, 3)
        energy, virial, _ = self._pair_terms_scratch(m)
        lengths, _, periodic = _box_f64(system.box)
        count = self._impl.eam_geom(
            system.positions, offsets, partners, lengths, periodic, rc * rc,
            coef, i, j, dr, r, exps,
        )
        if count is DECLINED:
            return None
        if count == 0:
            # No pair inside the cutoff: the body skips the embedding.
            return 0
        i, j, dr, r = i[:count], j[:count], dr[:count], r[:count]
        e = exps[:count].reshape(-1)
        np.exp(e, out=e)
        rho = np.zeros(system.n_atoms)
        if self._impl.eam_density(i, j, r, e, coef, rho) is DECLINED:
            return None
        embedding_energy, slopes = embedding(rho, params)
        if self._impl.eam_forces(
            i, j, dr, r, e, coef, slopes, system.forces, energy, virial
        ) is DECLINED:
            return None
        # The embedding sum reaches the total before the pair sum, as in
        # the body.
        rows.add_atom_energy(embedding_energy)
        rows.add_energy(None, energy[:count])
        rows.add_virial(None, virial[:count])
        return count

    def _charmm_half(self, potential, rows):
        """``CharmmCoulLong.terms`` over a half list, bitwise: the
        ``pair_geom`` kernel into scratch, the body's own ``erfc`` and
        ``exp`` (``charmm.ewald_screening``), ``charmm_terms`` for the
        rest of ``pair_terms``, ``acc_scaled`` for the forces — what the
        body's ``add_radial`` runs here — and the body's ``np.sum``
        reductions."""
        from repro.md.potentials.charmm import ewald_screening

        eps, sigma = _f64(potential.eps_table, potential.sigma_table)
        system = rows.system
        charges = system.charges
        n_types = len(eps)
        types = self._type_index(system.types, n_types)
        stored = self._rows_read(rows)
        if types is None or stored is None or charges.shape != (system.n_atoms,):
            return None
        m = len(stored[1])
        if m == 0:
            return 0
        geometry = self._pair_geom(
            system.positions, system.box, stored, potential.cutoff
        )
        if geometry is None:
            return None
        count, i, j, dr, r = geometry
        if count == 0:
            return 0
        i, j, dr, r = i[:count], j[:count], dr[:count], r[:count]
        alpha = potential.alpha
        # With alpha == 0 the kernel reads neither factor.
        erfc_ar, gauss = ewald_screening(alpha, r) if alpha > 0.0 else (r, r)
        energy, virial, f_over_r = (
            out[:count] for out in self._pair_terms_scratch(m)
        )
        if self._impl.charmm_terms(
            i, j, r, erfc_ar, gauss, types, n_types, eps, sigma, charges,
            potential.screened_constants(), energy, f_over_r, virial,
        ) is DECLINED or self._impl.acc_scaled(
            system.forces, i, j, dr, f_over_r
        ) is DECLINED:
            return None
        rows.add_energy(None, energy)
        rows.add_virial(None, virial)
        return count

    def _tersoff_full(self, potential, rows):
        params, rc = potential.params, potential.cutoff
        if params.m not in (1, 3):
            return None
        csr = self._rows_read(rows, rc)
        if csr is None:
            return None
        system = rows.system
        offsets, partners = csr
        # Row slots for the longest row read, so the kernel never
        # allocates and no row can overrun them.
        longest = int(np.diff(offsets).max(initial=0))
        doubles = self._impl.TERSOFF_SLOT_DOUBLES * longest
        rows_scratch = self._scratch("tersoff.rows", doubles, np.float64)
        atoms = self._scratch("tersoff.atoms", longest, np.int64)
        lengths, _, periodic = _box_f64(system.box)
        totals = np.empty(2)
        count = self._impl.tersoff_full(
            system.positions, offsets, partners, lengths, periodic,
            rc * rc, _tersoff_vector(params), longest, rows_scratch, atoms,
            system.forces, totals,
        )
        if count is DECLINED:
            return None
        rows.energy += float(totals[0])
        rows.virial += float(totals[1])
        return count

    def _lj_rows(self, potential, rows):
        lists = rows.lists
        gids = lists.index.gids
        csr = self._csr_rows(lists.offsets, lists.partners, len(gids))
        slots = (rows.forces, rows.energy, rows.virial)
        args = self._lj_arguments(potential, rows.per_atom("types"))
        if args is None or csr is None:
            return None
        offsets, partners = csr
        # The kernel walks the owned heads' rows only.
        count = self._impl.lj_rows(
            rows.positions,
            gids,
            offsets,
            rows.n_owned,
            partners,
            np.ascontiguousarray(rows.lengths, dtype=np.float64),
            np.ascontiguousarray(rows.periodic, dtype=np.uint8),
            *args,
            *slots,
        )
        return None if count is DECLINED else count

    #: The fused routes by ``(closed_form, rows.kind)``.
    _ROUTES = {
        ("lj/cut", "half"): _lj_half,
        ("lj/cut", "owner"): _lj_rows,
        ("eam/alloy", "half"): _eam_half,
        ("lj/charmm/coul/long", "half"): _charmm_half,
        ("tersoff", "full"): _tersoff_full,
    }

    # ------------------------------------------------------------------
    # PPPM particle <-> mesh
    # ------------------------------------------------------------------
    def _stencil_scratch(self, frac, order):
        """``(nodes, weights)`` scratch for ``3 * order`` stencil points
        of every atom at ``frac``'s dtype."""
        size = 3 * order * len(frac)
        return (
            self._scratch("pppm.nodes", size, np.int64),
            self._scratch("pppm.weights", size, frac.dtype),
        )

    @staticmethod
    def _mesh_coordinates(frac, order) -> bool:
        """True when ``frac`` is ``(N, 3)`` and ``order`` an int (the
        kernels decline, before writing, an order outside the ones PPPM
        supports)."""
        return frac.ndim == 2 and frac.shape[1] == 3 and isinstance(order, int)

    def pppm_spread(self, mesh, frac, charges, order):
        """Native charge spreading, bitwise the body at every precision:
        declined unless the shapes agree, and by the entry unless the
        ``(frac, mesh)`` dtypes are an accumulate instance and every
        array is native."""
        if not (
            self._mesh_coordinates(frac, order)
            and charges.shape == (len(frac),)
            and mesh.ndim == 3
            and mesh.size > 0
        ):
            return None
        status = self._impl.pppm_spread(
            mesh, np.array(mesh.shape, np.int64), frac, charges, order,
            *self._stencil_scratch(frac, order),
        )
        return None if status is DECLINED or status < 0 else mesh

    def pppm_gather(self, efield, frac, fields, order):
        """Native field interpolation, bitwise the body at every
        precision: declined unless the shapes agree and ``frac`` is in
        the policy's compute dtype (its instance is the policy's), and
        by the entry unless ``efield`` and the three fields are native
        in that dtype."""
        if not (
            self._mesh_coordinates(frac, order)
            and efield.shape == frac.shape
            and len(fields) == 3
            and fields[0].ndim == 3
            and fields[0].size > 0
            and fields[0].shape == fields[1].shape == fields[2].shape
            and frac.dtype == self.policy.compute_dtype
        ):
            return None
        status = self._impl.pppm_gather(
            efield, *fields, np.array(fields[0].shape, np.int64), frac, order,
            *self._stencil_scratch(frac, order),
        )
        return None if status is DECLINED or status < 0 else efield

    # ------------------------------------------------------------------
    # Scatter / accumulate
    # ------------------------------------------------------------------
    def _scatter_via_impl(self, out, index, values) -> bool:
        if values.ndim == out.ndim == 1:
            kernel = self._impl.scatter1
        elif values.ndim == out.ndim == 2 and values.shape[1] == out.shape[1] == 3:
            kernel = self._impl.scatter3
        else:
            return False
        return kernel(
            out, np.ascontiguousarray(index, dtype=np.int64),
            np.ascontiguousarray(values),
        ) is not DECLINED

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
            or fvec.ndim != 2
            or fvec.shape[1] != 3
            or self._impl.acc_pair(
                forces,
                np.ascontiguousarray(i, dtype=np.int64),
                np.ascontiguousarray(j, dtype=np.int64),
                np.ascontiguousarray(fvec),
            ) is DECLINED
        ):
            super().accumulate_pair_forces(forces, i, j, fvec)

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        dr = np.asarray(dr)
        f_over_r = np.asarray(f_over_r)
        if (
            len(i) == 0
            or self._impl.acc_scaled(
                forces,
                np.ascontiguousarray(i, dtype=np.int64),
                np.ascontiguousarray(j, dtype=np.int64),
                np.ascontiguousarray(dr),
                np.ascontiguousarray(f_over_r),
            ) is DECLINED
        ):
            super().accumulate_scaled_pair_forces(forces, i, j, dr, f_over_r)

    # ------------------------------------------------------------------
    # Neighbor-list build
    # ------------------------------------------------------------------
    def _fitted(self, stem, estimate, positions, *args):
        """The native builds' capacity protocol around the ``stem``
        kernel called as ``(positions, *args, partners, offsets)``: CSR
        rows over ``positions``, in a fresh partners array every time
        (the caller keeps a view of it, so nothing is copied out of
        scratch afterwards), sized by the largest count a build has
        reported plus a quarter once there is one, else by
        ``estimate``.  The largest, so a smaller build between two list
        builds (``neighbors_per_atom`` at the force cutoff) cannot make
        the next one overflow.  A kernel reports the true count even
        when it did not fit, so one retry always suffices; a declined
        call or a negative count (allocation failure, unmet
        precondition, tied sort keys) gives ``None``."""
        offsets = np.zeros(len(positions) + 1, dtype=np.int64)
        capacity = self._capacity_hint[stem] or max(estimate, 1024)
        while True:
            partners = np.empty(capacity, np.int64)
            count = getattr(self._impl, stem)(positions, *args, partners, offsets)
            if count is DECLINED or count < 0:
                return None
            if count <= capacity:
                break
            capacity = count
        self._capacity_hint[stem] = max(
            self._capacity_hint[stem], count + (count >> 2)
        )
        return CsrRows(offsets, partners[:count])

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
        if positions.ndim != 2 or positions.shape[1] != 3:
            return None
        positions = np.ascontiguousarray(positions)
        n = len(positions)
        if n == 0:
            return CsrRows(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        lengths, origin, periodic = _box_f64(box)
        volume = float(np.prod(lengths))
        # Half-pair estimate (4pi/6 * rc^3 * n^2 / V), padded.
        estimate = 16 * n
        if volume > 0:
            estimate += int(2.6 * float(rc) ** 3 * n * n / volume)
        if brute:
            # brute_force_pairs compares with its own python rc * rc.
            return self._fitted(
                "brute_csr", min(estimate, n * (n - 1) // 2), positions, lengths,
                periodic, float(rc) * float(rc),
            )
        return self._fitted(
            "cell_csr", estimate, positions, lengths, origin, periodic, float(rc)
        )

    def directed_rows(self, positions, box, rc, sort_key=None, anchor_limit=None):
        """Compiled directed-row build for an engine worker's local set
        (float64 positions in an open box only): the CSR rows of
        :func:`repro.md.neighbor.subdomain_directed_pairs`, bitwise,
        without the half list, the mirror or the lexsort."""
        positions = np.asarray(positions)
        if (
            positions.ndim != 2
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
        return self._fitted(
            "cell_rows", min(estimate, anchors * (n - 1)), positions, lengths,
            origin, periodic, float(rc), sort_key, anchors,
        )

    def prune_rows(self, positions, box, offsets, partners, radius):
        """Native inner-row sweep (float64, C-contiguous only).  The
        partners are a view of a buffer with room for every stored pair:
        the sweep writes no further than the pairs it keeps, so the pages
        past them are never touched."""
        n = len(positions)
        if positions.shape != (n, 3) or self._csr_rows(offsets, partners, n) is None:
            return None
        inner = np.empty(len(offsets), np.int64)
        kept = np.empty(len(partners), np.int64)
        lengths, _, periodic = _box_f64(box)
        count = self._impl.prune_rows(
            positions, offsets, partners, lengths, periodic, radius * radius,
            inner, kept,
        )
        return None if count is DECLINED else (inner, kept[:count])

    def max_displacement_sq(self, positions, reference, box):
        """Native skin check (float64, C-contiguous ``(n, 3)`` only)."""
        if not (
            positions.shape == reference.shape
            and positions.ndim == 2
            and positions.shape[1] == 3
            and len(positions) > 0
        ):
            return None
        result = self._impl.max_disp_sq(positions, reference, *_box_f64(box))
        return None if result is DECLINED else result
