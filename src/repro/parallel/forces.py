"""Worker-side force evaluation over a subdomain's directed pair list.

The parallel engine runs the paper's ``newton off`` scheme: every
worker stores the *directed* neighbor rows of its local atoms (each
atom's partners sorted by global id) and evaluates, for each owned atom
``i``, the full force ``sum_j f(i, j)`` one-sided — writing only to
``i``'s slots in the shared arrays.  Each unordered pair is therefore
computed twice globally (once per owner), which buys two properties the
half-list scheme cannot offer:

* **disjoint writes** — no inter-worker force reduction or locking, the
  shared force array is partitioned by ownership;
* **bitwise determinism across worker counts** — atom ``i``'s total is
  always the same complete row summed in the same (global-id) order via
  ``np.bincount``'s sequential accumulation, no matter how the box was
  split.

Energy and virial use the standard half-share convention (half of each
directed pair's contribution goes to its owner), accumulated into
per-atom shared slots that the master reduces in canonical atom order.

Three adapters cover every potential in the suite: the generic
:class:`~repro.md.potentials.base.AnalyticPairPotential` path, the
two-pass EAM evaluation (local densities over the widened halo), and
the granular Hooke/history contact model (whose per-contact state lives
in a worker-local :class:`~repro.md.potentials.granular.ContactHistory`
keyed by *directed global* pair ids — mirror-symmetric to the serial
unordered store).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.kernels.base import KernelBackend
from repro.md.neighbor import subdomain_directed_pairs
from repro.md.potentials.base import AnalyticPairPotential, PairPotential
from repro.md.potentials.eam import EAMAlloy
from repro.md.potentials.granular import ContactHistory, HookeHistory
from repro.parallel.halo import LocalIndex

__all__ = ["DomainLists", "LocalForces", "evaluate_domain_forces", "max_halo_width"]


def max_halo_width(potentials: list[PairPotential], list_cutoff: float) -> float:
    """Widest ghost shell any of the potentials requires."""
    if not potentials:
        return float(list_cutoff)
    return max(p.halo_width(list_cutoff) for p in potentials)


@dataclass
class DomainLists:
    """One worker's frozen neighbor state between rebuilds."""

    index: LocalIndex
    #: Directed local pairs, sorted by ``(i, global_id[j])``.
    di: np.ndarray
    dj: np.ndarray
    #: Global atom ids per directed row (gathered once per rebuild).
    gdi: np.ndarray
    gdj: np.ndarray
    #: Rows ``[:n_owned_rows]`` have an *owned* ``i`` — a prefix, since
    #: rows are sorted by local ``i`` and owned locals come first.
    n_owned_rows: int
    #: Owned rows inside the force cutoff at build time (the Table-2
    #: neighbors/atom statistic, directed).
    owned_within: int
    _dr: np.ndarray | None = field(default=None, repr=False)
    _tmp: np.ndarray | None = field(default=None, repr=False)
    _r2: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        index: LocalIndex,
        local_positions: np.ndarray,
        list_cutoff: float,
        count_cutoff: float,
        *,
        excluded_keys: np.ndarray | None = None,
        n_atoms_total: int = 0,
        owned_only: bool = False,
        kernels: "KernelBackend | None" = None,
    ) -> "DomainLists":
        # Non-EAM workloads never read ghost-headed rows; not building
        # them (owned_only) cuts the rebuild's volume without changing
        # any surviving row.  ``kernels`` lets the worker's backend (the
        # compiled one) emit the rows natively; it contracts to deliver
        # the numpy rows exactly, so nothing downstream can tell.
        di, dj, within = subdomain_directed_pairs(
            local_positions,
            list_cutoff,
            sort_key=index.gids,
            anchor_limit=index.n_owned if owned_only else None,
            kernels=kernels,
            count_cutoff=count_cutoff,
        )
        if excluded_keys is not None and len(excluded_keys) and len(di):
            gi = index.gids[di]
            gj = index.gids[dj]
            keys = (
                np.minimum(gi, gj) * np.int64(n_atoms_total) + np.maximum(gi, gj)
            )
            pos = np.searchsorted(excluded_keys, keys)
            pos = np.minimum(pos, len(excluded_keys) - 1)
            keep = excluded_keys[pos] != keys
            # Order-preserving, but the producer's counts describe the
            # unfiltered rows.
            di, dj = di[keep], dj[keep]
            within = None
        n_owned_rows = int(np.searchsorted(di, index.n_owned))
        if within is not None:
            # Per head atom, so the owned prefix can be taken from an
            # all-anchor (EAM) build too.
            owned_within = int(within[: index.n_owned].sum())
        else:
            # Nobody counted these rows (numpy build, exclusion
            # filter): one geometry sweep over the owned ones.
            dr = (
                local_positions[di[:n_owned_rows]]
                - local_positions[dj[:n_owned_rows]]
            )
            r2 = np.einsum("ij,ij->i", dr, dr)
            owned_within = int(np.count_nonzero(r2 < count_cutoff * count_cutoff))
        return cls(
            index=index,
            di=di,
            dj=dj,
            gdi=index.gids[di],
            gdj=index.gids[dj],
            n_owned_rows=n_owned_rows,
            owned_within=owned_within,
        )

    @property
    def owned_directed_pairs(self) -> int:
        """Stored directed pairs whose ``i`` is an owned atom."""
        return self.n_owned_rows

    def geometry_scratch(
        self, m: int, dtype: np.dtype = np.float64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-rebuild scratch for the ``dr``/``tmp``/``r2`` hot arrays."""
        if self._dr is None or len(self._dr) < m or self._dr.dtype != dtype:
            self._dr = np.empty((m, 3), dtype=dtype)
            self._tmp = np.empty((m, 3), dtype=dtype)
            self._r2 = np.empty(m, dtype=dtype)
        return self._dr[:m], self._tmp[:m], self._r2[:m]


@dataclass
class LocalForces:
    """Per-owned-atom accumulators of one force pass."""

    forces: np.ndarray
    energy: np.ndarray
    virial: np.ndarray
    torques: np.ndarray | None
    #: Directed interaction count per potential (master halves the
    #: half-list ones to recover the serial convention).
    interactions: list[int] = field(default_factory=list)


def evaluate_domain_forces(
    potentials: list[PairPotential],
    lists: DomainLists,
    positions: np.ndarray,
    *,
    lengths: np.ndarray,
    periodic: np.ndarray,
    backend: KernelBackend,
    statics: dict[str, np.ndarray | None],
    velocities: np.ndarray | None = None,
    omega: np.ndarray | None = None,
    histories: dict[int, ContactHistory] | None = None,
    n_atoms_total: int = 0,
) -> LocalForces:
    """Evaluate every potential over the domain's directed rows.

    ``positions`` is the *global* (raw, possibly unwrapped) position
    array; each pair's displacement is recomputed from it under the
    minimum image every step — exactly the serial kernels' arithmetic —
    so the stored ghost shifts only ever localize the *pair search* at
    rebuild time and atoms crossing a periodic face between rebuilds
    need no special handling.  ``statics`` holds the *local-index*
    gathered per-atom constants (``types``, ``charges``, ``masses``,
    ``radii``); ``velocities`` / ``omega`` are local-gathered per-step
    state (granular only).  ``histories`` maps potential position ->
    worker-local contact store.  All scatter accumulation goes through
    ``backend`` — :meth:`~repro.md.kernels.base.KernelBackend.
    scatter_add` sums in input order, which (with rows sorted by global
    partner id) is what makes the totals independent of the worker
    count.
    """
    index = lists.index
    n_owned = index.n_owned
    # EAM needs the ghost-``i`` rows too (they feed the local densities);
    # everything else only ever reads owned rows, which are a prefix of
    # the sorted directed list — slice instead of masking.
    full_rows = any(isinstance(p, EAMAlloy) for p in potentials)
    m = len(lists.di) if full_rows else lists.n_owned_rows
    di, dj = lists.di[:m], lists.dj[:m]
    # Geometry runs in the storage dtype of the shared position buffer
    # (float32 under SINGLE), mirroring the serial kernels' policy.
    lengths = np.asarray(lengths).astype(positions.dtype, copy=False)
    owned_rows = tuple(
        rows[: lists.n_owned_rows]
        for rows in (lists.di, lists.dj, lists.gdi, lists.gdj)
    )
    # Per-row dr / r2 / owned mask, shared by the potentials no fused
    # kernel takes and built for the first of them: a domain whose
    # potentials are all fused never materializes the displacement
    # arrays.
    geometry = None

    # Per-atom accumulators follow the accumulate dtype: MIXED gathers
    # float32 per-pair terms into float64 totals.
    at = backend.policy.accumulate_dtype
    out = LocalForces(
        forces=np.zeros((n_owned, 3), dtype=at),
        energy=np.zeros(n_owned, dtype=at),
        virial=np.zeros(n_owned, dtype=at),
        torques=np.zeros((n_owned, 3), dtype=at) if omega is not None else None,
    )

    for slot, pot in enumerate(potentials):
        if isinstance(pot, AnalyticPairPotential):
            style = pot.fused_style()
            fused = None if style is None else backend.directed_pair_forces(
                style, positions, lengths, periodic, owned_rows,
                statics["types"], out.forces, out.energy, out.virial,
            )
            if fused is not None:
                out.interactions.append(fused)
                continue
        if geometry is None:
            geometry = (
                *_row_geometry(lists, positions, lengths, periodic, m),
                di < n_owned,
            )
        dr_all, r2_all, owned_mask = geometry
        cutoff_mask = r2_all < pot.cutoff * pot.cutoff
        if isinstance(pot, EAMAlloy):
            _eam_terms(
                pot, lists, dr_all, r2_all, cutoff_mask, owned_mask, backend, out
            )
        elif isinstance(pot, HookeHistory):
            history = histories.setdefault(slot, ContactHistory()) if (
                histories is not None
            ) else ContactHistory()
            _hooke_terms(
                pot,
                lists,
                dr_all,
                r2_all,
                cutoff_mask & owned_mask,
                statics,
                velocities,
                omega,
                history,
                n_atoms_total,
                backend,
                out,
            )
        elif isinstance(pot, AnalyticPairPotential):
            _analytic_terms(
                pot,
                dr_all,
                r2_all,
                cutoff_mask & owned_mask,
                di,
                dj,
                statics,
                backend,
                out,
            )
        else:
            raise TypeError(
                f"no parallel adapter for potential {type(pot).__name__}; "
                "supported: AnalyticPairPotential subclasses, EAMAlloy, "
                "HookeHistory"
            )
    return out


def _row_geometry(
    lists: DomainLists,
    positions: np.ndarray,
    lengths: np.ndarray,
    periodic: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image ``dr`` and ``r2`` of the first ``m`` directed rows."""
    dr_all, tmp, r2_all = lists.geometry_scratch(m, positions.dtype)
    np.take(positions, lists.gdi[:m], axis=0, out=dr_all, mode="clip")
    np.take(positions, lists.gdj[:m], axis=0, out=tmp, mode="clip")
    np.subtract(dr_all, tmp, out=dr_all)
    # In-place minimum image, same operation sequence as the kernels
    # (divide, round-half-even, mask non-periodic, multiply, subtract),
    # so parallel displacements are bitwise equal to the serial ones.
    np.divide(dr_all, lengths, out=tmp)
    np.rint(tmp, out=tmp)
    if not periodic.all():
        tmp[:, ~periodic] = 0.0
    np.multiply(tmp, lengths, out=tmp)
    np.subtract(dr_all, tmp, out=dr_all)
    np.einsum("ij,ij->i", dr_all, dr_all, out=r2_all)
    return dr_all, r2_all


def _analytic_terms(
    pot: AnalyticPairPotential,
    dr_all: np.ndarray,
    r2_all: np.ndarray,
    mask: np.ndarray,
    di: np.ndarray,
    dj: np.ndarray,
    statics: dict[str, np.ndarray | None],
    backend: KernelBackend,
    out: LocalForces,
) -> None:
    sel = np.flatnonzero(mask)
    out.interactions.append(len(sel))
    if len(sel) == 0:
        return
    i, j = di[sel], dj[sel]
    dr, r2 = dr_all[sel], r2_all[sel]
    r = np.sqrt(r2)
    # The pair set was decided in the storage dtype above; the per-pair
    # math now drops to the compute dtype (a no-op except under MIXED).
    ct = backend.policy.compute_dtype
    if dr.dtype != ct:
        dr = dr.astype(ct)
        r2 = r2.astype(ct)
        r = r.astype(ct)
    types = statics["types"]
    charges = statics["charges"]
    type_i = types[i] if pot.needs_types else None
    type_j = types[j] if pot.needs_types else None
    q_i = charges[i].astype(ct, copy=False) if pot.needs_charges else None
    q_j = charges[j].astype(ct, copy=False) if pot.needs_charges else None
    energy, f_over_r = pot.pair_terms(r, r2, type_i, type_j, q_i, q_j)
    backend.scatter_add_sorted(out.forces, i, f_over_r[:, None] * dr)
    backend.scatter_add_sorted(out.energy, i, 0.5 * energy)
    backend.scatter_add_sorted(out.virial, i, 0.5 * f_over_r * r2)


def _eam_terms(
    pot: EAMAlloy,
    lists: DomainLists,
    dr_all: np.ndarray,
    r2_all: np.ndarray,
    cutoff_mask: np.ndarray,
    owned_mask: np.ndarray,
    backend: KernelBackend,
    out: LocalForces,
) -> None:
    """Two-pass EAM over the full local rows (ghost rows feed ``rho``).

    Halo atoms within the force cutoff of an owned atom have *complete*
    density rows by construction (the EAM halo width is ``list_cutoff +
    cutoff``), so their embedding slopes match the serial values; rows
    further out are incomplete but never consumed.
    """
    sel = np.flatnonzero(cutoff_mask)
    out.interactions.append(int(np.count_nonzero(cutoff_mask & owned_mask)))
    n_owned = len(out.energy)
    if len(sel) == 0:
        # Mirror the serial evaluation: with no pairs anywhere the
        # embedding sum is skipped entirely (exact zero, not F(rho->0)).
        return
    i, j = lists.di[sel], lists.dj[sel]
    r2 = r2_all[sel]
    r = np.sqrt(r2)
    ct = backend.policy.compute_dtype
    dr_sel = dr_all[sel]
    if r.dtype != ct:
        r = r.astype(ct)
        r2 = r2.astype(ct)
        dr_sel = dr_sel.astype(ct)

    f_r, df_r = pot.density_function(r)
    # Densities accumulate in the accumulate dtype (f64 under MIXED).
    rho = np.zeros(lists.index.n_local, dtype=backend.policy.accumulate_dtype)
    backend.scatter_add_sorted(rho, i, f_r)
    F_rho, Fp_rho = pot.embedding_function(rho)

    phi, dphi = pot.pair_function(r)
    Fp = Fp_rho.astype(ct, copy=False)
    f_over_r = -(dphi + (Fp[i] + Fp[j]) * df_r) / r

    owned = i < n_owned
    io = i[owned]
    backend.scatter_add_sorted(
        out.forces, io, f_over_r[owned, None] * dr_sel[owned]
    )
    out.energy += F_rho[:n_owned]
    backend.scatter_add_sorted(out.energy, io, 0.5 * phi[owned])
    backend.scatter_add_sorted(out.virial, io, 0.5 * (f_over_r * r2)[owned])


def _hooke_terms(
    pot: HookeHistory,
    lists: DomainLists,
    dr_all: np.ndarray,
    r2_all: np.ndarray,
    mask: np.ndarray,
    statics: dict[str, np.ndarray | None],
    velocities: np.ndarray | None,
    omega: np.ndarray | None,
    history: ContactHistory,
    n_atoms_total: int,
    backend: KernelBackend,
    out: LocalForces,
) -> None:
    """Directed granular contacts, one-sided on the owner.

    Every term of :meth:`HookeHistory.contact_terms` flips sign (or
    stays invariant) under the direction swap exactly as the serial
    two-sided scatter requires, so the owner of each side computes its
    own force/torque/history independently and the results agree with
    the serial evaluation.  The tangential history is keyed by the
    *directed* global pair id; when a contact's owner changes at a
    rebuild the engine hands the row to the new owner (it reloads every
    store from the pool-wide table with the ``rebuild`` command), so a
    history survives migration as the serial store does.
    """
    radii = statics["radii"]
    masses = statics["masses"]
    if radii is None:
        raise ValueError("HookeHistory needs a granular system (radii set)")
    sel = np.flatnonzero(mask)
    out.interactions.append(len(sel))
    i, j = lists.di[sel], lists.dj[sel]
    r = np.sqrt(r2_all[sel])
    touching = r < (radii[i] + radii[j]).astype(r.dtype, copy=False)
    sel, i, j, r = sel[touching], i[touching], j[touching], r[touching]
    gids = lists.index.gids
    keys = gids[i] * np.int64(n_atoms_total) + gids[j]
    xi = history.sync(keys)
    if len(sel) == 0:
        return
    # Contact math in the compute dtype; the tangential history stays
    # float64 (restart state), exactly as the serial evaluation does.
    ct = backend.policy.compute_dtype
    dr_sel = dr_all[sel].astype(ct, copy=False)
    if r.dtype != ct:
        r = r.astype(ct)
    f_i, torque, xi_new, pair_energy, pair_virial = pot.contact_terms(
        dr_sel,
        r,
        radii[i].astype(ct, copy=False),
        radii[j].astype(ct, copy=False),
        masses[i].astype(ct, copy=False),
        masses[j].astype(ct, copy=False),
        velocities[i].astype(ct, copy=False),
        velocities[j].astype(ct, copy=False),
        omega[i].astype(ct, copy=False) if omega is not None else None,
        omega[j].astype(ct, copy=False) if omega is not None else None,
        xi,
    )
    history.store(xi_new)
    backend.scatter_add_sorted(out.forces, i, f_i)
    if out.torques is not None:
        backend.scatter_add_sorted(out.torques, i, -radii[i][:, None] * torque)
    backend.scatter_add_sorted(out.energy, i, 0.5 * pair_energy)
    backend.scatter_add_sorted(out.virial, i, 0.5 * pair_virial)
