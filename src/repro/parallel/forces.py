"""Worker-side force evaluation: the owner-writes driver of the row view.

The parallel engine runs the paper's ``newton off`` scheme: every
worker stores the *directed* neighbor rows of its local atoms (each
atom's partners sorted by global id) and writes only its owned atoms'
slots in the shared arrays.  A pair-symmetric term is therefore
computed twice globally (once per owner), which buys two properties the
half-list scheme cannot offer:

* **disjoint writes** — no inter-worker force reduction or locking, the
  shared force array is partitioned by ownership;
* **bitwise determinism across worker counts** — atom ``i``'s total is
  always the same complete row summed in the same (global-id) order, no
  matter how the box was split.

No potential is known here: each one's single body runs against
:class:`OwnerRows`, the engine's :class:`~repro.md.potentials.base.PairRows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.md.kernels.base import KernelBackend
from repro.md.kernels.numpy_fast import min_image_geometry
from repro.md.neighbor import drop_excluded_pairs, row_heads, subdomain_directed_pairs
from repro.md.potentials.base import PairRows, Pairs
from repro.parallel.halo import LocalIndex

__all__ = ["DomainLists", "OwnerRows"]


@dataclass
class DomainLists:
    """One worker's frozen neighbor state between rebuilds: the directed
    CSR rows of its local atoms (owned first, then ghosts), each sorted
    by global id.  The per-row heads and global ids a numpy body reads
    are derived on their first read; a fused pass never needs them."""

    index: LocalIndex
    offsets: np.ndarray
    partners: np.ndarray
    _scratch: tuple | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        index: LocalIndex,
        local_positions: np.ndarray,
        list_cutoff: float,
        *,
        excluded_keys: np.ndarray | None = None,
        n_atoms_total: int = 0,
        owned_only: bool = False,
        kernels: "KernelBackend | None" = None,
    ) -> "DomainLists":
        # Only a potential with a widened halo reads ghost-headed rows;
        # not building them (owned_only) cuts the rebuild's volume
        # without changing any surviving row.  ``kernels`` lets the
        # worker's backend (the compiled one) emit the rows natively; it
        # contracts to deliver the numpy rows exactly, so nothing
        # downstream can tell.
        rows = subdomain_directed_pairs(
            local_positions,
            list_cutoff,
            sort_key=index.gids,
            anchor_limit=index.n_owned if owned_only else None,
            kernels=kernels,
        )
        if excluded_keys is not None:
            rows = drop_excluded_pairs(rows, excluded_keys, n_atoms_total, index.gids)
        return cls(index, *rows)

    @property
    def n_owned_rows(self) -> int:
        """Rows ``[:n_owned_rows]`` have an *owned* head — a prefix,
        since owned locals come first."""
        return int(self.offsets[self.index.n_owned])

    @cached_property
    def heads(self) -> np.ndarray:
        """The local head of every row (non-decreasing)."""
        return row_heads(self.offsets)

    @cached_property
    def global_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The global ids ``(head, partner)`` of every row."""
        return self.index.gids[self.heads], self.index.gids[self.partners]

    @cached_property
    def gid_order(self) -> np.ndarray:
        """Row permutation putting heads in global-id order (a head's
        rows stay together), found once per rebuild: a directed body's
        walk.  No two images of one atom bond to the same owned atom
        (the half-box cutoff check), so ``(gid_i, gid_j, gid_k)`` orders
        every owned atom's contributions whatever the decomposition."""
        return np.argsort(self.global_rows[0], kind="stable")

    def geometry(self, positions, lengths, periodic) -> tuple[np.ndarray, ...]:
        """Minimum-image ``(dr, r2)`` of every stored row from the
        *global* ``positions``, in per-rebuild scratch."""
        m, dtype = len(self.partners), positions.dtype
        if self._scratch is None or self._scratch[0].dtype != dtype:
            self._scratch = (
                np.empty((m, 3), dtype), np.empty((m, 3), dtype), np.empty(m, dtype)
            )
        return min_image_geometry(
            positions, *self.global_rows, lengths, periodic, self._scratch
        )


class OwnerRows(PairRows):
    """One force pass of an engine worker: directed rows, owner-writes,
    into the per-owned-atom ``forces``/``energy``/``virial``/``torques``.

    ``positions`` is the *global* (raw, possibly unwrapped) position
    array; each pair's displacement is recomputed from it under the
    minimum image every step — exactly the serial kernels' arithmetic —
    so the stored ghost shifts only ever localize the *pair search* at
    rebuild time and atoms crossing a periodic face between rebuilds
    need no special handling.  ``per_atom`` maps names to *local-index*
    gathered arrays.

    A symmetric term is seen from both ends across the pool, so its
    head alone is written and its energy and virial count half; a
    directed term counts whole and reaches any owned atom it names.
    Every row is summed by a rule fixed by its own values (the
    backend's scatters), which with rows sorted by global partner id
    makes it independent of the worker count.
    """

    kind = "owner"

    def __init__(
        self, lists, positions, lengths, periodic, backend, per_atom, n_atoms_total
    ):
        self.lists, self.positions, self.periodic = lists, positions, periodic
        # Geometry runs in the storage dtype of the shared position
        # buffer (float32 under SINGLE), mirroring the serial kernels.
        self.lengths = np.asarray(lengths).astype(positions.dtype, copy=False)
        self.backend, self._per_atom = backend, per_atom
        self.n_atoms_total = n_atoms_total
        self.n_owned = n = lists.index.n_owned
        # Accumulators follow the accumulate dtype: MIXED gathers
        # float32 per-pair terms into float64 totals.
        at = backend.policy.accumulate_dtype
        self.forces = np.zeros((n, 3), dtype=at)
        self.energy, self.virial = np.zeros((2, n), dtype=at)
        spins = per_atom.get("omega") is not None
        self.torques = np.zeros((n, 3), dtype=at) if spins else None
        # dr / r2 of every stored row, built for the first body that
        # asks: a fully fused domain never materializes them.
        self._geometry = None
        self._directed = self._ghosts = False
        self._scatter = backend.scatter_add_sorted

    def per_atom(self, name):
        return self._per_atom.get(name)

    def within(self, cutoff, *, directed=False, ghost_heads=False):
        lists, kernels = self.lists, self.backend
        if self._geometry is None:
            self._geometry = lists.geometry(self.positions, self.lengths, self.periodic)
        dr_all, r2_all = self._geometry
        self._directed, self._ghosts = directed, directed or ghost_heads
        # Only a directed walk leaves the heads out of index order.
        self._scatter = kernels.scatter_add if directed else kernels.scatter_add_sorted
        inside = r2_all < cutoff * cutoff
        # The owned heads' rows are a prefix.
        mine = inside[: lists.n_owned_rows]
        if directed:
            sel = lists.gid_order[inside[lists.gid_order]]
        else:
            sel = np.flatnonzero(inside if ghost_heads else mine)
        dr, r2 = dr_all[sel], r2_all[sel]
        r = np.sqrt(r2)
        # The pair set was decided in the storage dtype; the per-pair
        # math drops to the compute dtype (a no-op except under MIXED).
        ct = kernels.policy.compute_dtype
        if dr.dtype != ct:
            dr, r2, r = dr.astype(ct), r2.astype(ct), r.astype(ct)
        return Pairs(
            lists.heads[sel], lists.partners[sel], dr, r, r2,
            int(np.count_nonzero(mine)),
        )

    def _add(self, target, index, values, share=False):
        """Scatter onto owned atoms; ``share`` halves a symmetric term
        (its other half is the mirrored row's)."""
        if self._ghosts:
            keep = index < self.n_owned
            index, values = index[keep], values[keep]
        if share and not self._directed:
            values = 0.5 * values
        self._scatter(target, index, values)

    def ends(self, pairs):
        return (pairs.i,)

    def contact_keys(self, pairs):
        # Directed global ids, mirror-symmetric to the serial unordered
        # store; the engine hands every row to its head's new owner at a
        # rebuild, so a history survives migration as the serial one does.
        gids = self.lists.index.gids
        return gids[pairs.i] * np.int64(self.n_atoms_total) + gids[pairs.j]

    def add_vector(self, pairs, fvec):
        self._add(self.forces, pairs.i, fvec)
        if self._directed:
            self._add(self.forces, pairs.j, -fvec)

    def push(self, name, index, values):
        self._add(getattr(self, name), index, values)

    def partner_sum(self, pairs, values):
        total = np.zeros(self.lists.index.n_local, dtype=self.forces.dtype)
        self._scatter(total, pairs.i, values)
        return total

    def add_energy(self, index, values):
        self._add(self.energy, index, values, share=True)

    def add_atom_energy(self, values):
        self.energy += values[: self.n_owned]

    def add_virial(self, index, values):
        self._add(self.virial, index, values, share=True)
