"""Neighbor lists with a skin distance, built via cell (link-cell) lists.

This implements the cutoff optimization described in Section 2 of the
paper: for each particle we keep all partners within ``cutoff + skin``
so that the (O(N)-per-rebuild) list construction only has to run when
some particle has moved more than half the skin since the last build.
A larger skin means more candidate pairs to re-check each timestep but
fewer rebuilds — exactly the trade-off the paper's Table 2 captures in
its per-benchmark "Neighbor skin" row.

Two list flavours are supported, mirroring LAMMPS' ``newton`` setting:

* *half* lists store each pair once (Newton's third law shares the
  computed force between both partners) — used by Rhodopsin, LJ, Chain
  and EAM;
* *full* lists store both ``(i, j)`` and ``(j, i)`` — used by Chute,
  which (per Section 3) does not exploit Newton's third law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels.base import DirectedRows
from repro.observability.tracer import NULL_TRACER

__all__ = [
    "NeighborList",
    "NeighborStats",
    "brute_force_pairs",
    "cell_list_half_pairs",
    "subdomain_directed_pairs",
]

# Below this atom count a vectorized O(N^2) build is faster than cell
# binning in numpy and trivially correct; above it we bin.  The default
# of every ``brute_force_max=`` argument below.
_BRUTE_FORCE_MAX_ATOMS = 800

#: Most link cells a build will bin into (LAMMPS' "Too many neighbor
#: bins" bound, a 32-bit count): past it the per-cell tables alone are
#: tens of GiB.  The native builds decline such a grid (their own
#: ``INT32_MAX`` test), which lands the caller here.
MAX_CELLS = int(np.iinfo(np.int32).max)


#: Half stencil for the cell-list build: the 13 "forward" neighbor-cell
#: offsets (self-cell pairs are handled triangularly), so each pair is
#: generated exactly once.
_HALF_STENCIL = np.array(
    [
        (dx, dy, dz)
        for dx in (0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
        and not (dx == 0 and (dy < 0 or (dy == 0 and dz < 0)))
    ],
    dtype=np.int64,
)


def _encode_pairs(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Map unordered index pairs to unique scalar keys for set algebra."""
    lo = np.minimum(i, j).astype(np.int64)
    hi = np.maximum(i, j).astype(np.int64)
    return lo * np.int64(n) + hi


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _isin_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in presorted ``sorted_keys``.

    ``np.searchsorted`` on an already-sorted key table is
    O(M log E) with tiny constants, replacing the ``np.isin`` set
    machinery (which re-sorts and concatenates both operands on every
    neighbor rebuild).
    """
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def brute_force_pairs(
    positions: np.ndarray, box: Box, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """All half pairs within ``cutoff`` by direct O(N^2) search.

    Reference implementation used both as the small-system fast path and
    as the oracle the cell-list build is tested against.
    """
    n = len(positions)
    iu, ju = np.triu_indices(n, k=1)
    dr = box.minimum_image(positions[iu] - positions[ju])
    r2 = np.einsum("ij,ij->i", dr, dr)
    mask = r2 < cutoff * cutoff
    return iu[mask], ju[mask]


def cell_list_half_pairs(
    positions: np.ndarray, box: Box, rc: float
) -> tuple[np.ndarray, np.ndarray]:
    """Half pair list via link-cell binning (O(N) for fixed density).

    Fully vectorized: candidate pairs come from numpy repeats and
    gathers over the cell-sorted atom order — one pass per stencil
    offset over *all* atoms at once — instead of a Python loop over
    occupied cells.  The distance filter runs *per stencil offset* on
    each candidate block before anything is concatenated, so the peak
    working set is one offset's candidates (~1/14th of the full
    candidate population) and only surviving pairs are ever copied.
    """
    # Distance checks run in the caller's storage dtype (float32 under
    # the SINGLE precision policy); integer binning below is dtype-safe.
    positions = np.asarray(positions)
    if positions.dtype != np.float32:
        positions = positions.astype(np.float64, copy=False)
    n = len(positions)
    rc2 = rc * rc
    n_cells = np.maximum(np.floor(box.lengths / rc).astype(int), 1)
    # Python ints: the product of three int64 counts can wrap, and a
    # wrapped count would size the tables below (and the flat index).
    grid = tuple(n_cells.tolist())
    total_cells = math.prod(grid)
    if total_cells > MAX_CELLS:
        raise ValueError(
            f"link-cell grid {grid} for cutoff {rc:g} has "
            f"{total_cells} cells, more than the {MAX_CELLS} a build can "
            "index and allocate; the box is too large for this cutoff"
        )
    cell_size = box.lengths / n_cells

    coords = np.floor((positions - box.origin) / cell_size).astype(np.int64)
    coords = np.minimum(coords, n_cells - 1)
    coords = np.maximum(coords, 0)
    strides = np.array(
        [n_cells[1] * n_cells[2], n_cells[2], 1], dtype=np.int64
    )
    flat = coords @ strides

    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    sorted_coords = coords[order]
    counts = np.bincount(sorted_flat, minlength=total_cells)
    # cell_starts[c] = first slot of cell c in the sorted order.
    cell_starts = np.zeros(total_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=cell_starts[1:])

    pair_i_blocks: list[np.ndarray] = []
    pair_j_blocks: list[np.ndarray] = []
    # With no periodic dimension the image shift is identically zero
    # (minimum_image returns ``dr - 0.0``); skipping it drops a divide,
    # round and multiply over every candidate.  The subdomain search
    # always takes this path — its ghost images realize periodicity.
    any_periodic = bool(box.periodic.any())

    def _keep_within_cutoff(cand_i: np.ndarray, cand_j: np.ndarray) -> None:
        dr = positions[cand_i] - positions[cand_j]
        if any_periodic:
            dr = box.minimum_image(dr)
        r2 = np.einsum("ij,ij->i", dr, dr)
        keep = np.flatnonzero(r2 < rc2)
        if len(keep):
            pair_i_blocks.append(cand_i[keep])
            pair_j_blocks.append(cand_j[keep])

    # Intra-cell pairs: sorted slot k pairs with every *later* member
    # of its own cell (the triangular half without materializing it).
    slots = np.arange(n, dtype=np.int64)
    n_after = cell_starts[sorted_flat + 1] - slots - 1
    if int(n_after.sum()) > 0:
        j_slots = np.repeat(slots + 1, n_after) + _ragged_arange(n_after)
        _keep_within_cutoff(np.repeat(order, n_after), order[j_slots])

    # Inter-cell pairs: for each of the 13 forward stencil offsets,
    # every atom pairs with the full population of its neighbor cell.
    for off in _HALF_STENCIL:
        nb = sorted_coords + off
        valid = np.ones(n, dtype=bool)
        for d in range(3):
            if box.periodic[d]:
                nb[:, d] %= n_cells[d]
            else:
                valid &= (nb[:, d] >= 0) & (nb[:, d] < n_cells[d])
        nb_flat = nb @ strides
        if not valid.all():
            nb_flat = nb_flat[valid]
            members = order[valid]
        else:
            members = order
        cnt = counts[nb_flat]
        if int(cnt.sum()) == 0:
            continue
        j_slots = np.repeat(cell_starts[nb_flat], cnt) + _ragged_arange(cnt)
        # With fewer than 3 cells in a periodic dimension the same pair
        # can appear from two offsets; _can_bin guards against that, so
        # every candidate is unique and the per-offset filter suffices.
        _keep_within_cutoff(np.repeat(members, cnt), order[j_slots])

    if not pair_i_blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pair_i_blocks), np.concatenate(pair_j_blocks)


def subdomain_directed_pairs(
    positions: np.ndarray,
    rc: float,
    *,
    sort_key: np.ndarray | None = None,
    brute_force_max: int = _BRUTE_FORCE_MAX_ATOMS,
    anchor_limit: int | None = None,
    kernels=None,
    count_cutoff: float | None = None,
) -> DirectedRows:
    """Directed pair list over a subdomain's local atom set.

    The parallel engine hands each worker its owned atoms plus
    ghost-shifted halo copies; periodicity is realized by the ghost
    images, so the local search runs in an *open* (non-periodic)
    bounding box with plain Euclidean distances.  Every unordered pair
    within ``rc`` is returned in both directions ``(i, j)`` and
    ``(j, i)``, sorted by ``(i, sort_key[j])`` — passing the global atom
    ids as ``sort_key`` makes each atom's neighbor row canonically
    ordered regardless of how the domain was decomposed, which is what
    keeps parallel force sums bitwise reproducible across worker counts.

    ``anchor_limit`` keeps only the rows whose head is below it.  Owned
    locals come first in the worker's numbering, so passing ``n_owned``
    drops every ghost-headed row — the rows a one-sided owner-computes
    pass never reads (EAM is the exception: its density pass needs the
    ghost-headed rows and must not set this).  The surviving rows are
    bitwise identical to the matching prefix of the unrestricted list.

    ``kernels`` optionally supplies a
    :class:`~repro.md.kernels.base.KernelBackend`.  Above the
    brute-force crossover its ``directed_rows`` hook is asked first: the
    compiled backend bins once, walks the full stencil over the anchors
    and sorts each row by ``sort_key`` in the kernel, returning these
    very rows (and, given ``count_cutoff``, how many lie within it)
    with no half list, mirror or sort.  When it declines — float32
    positions, no native provider, tied sort keys — the body below
    builds the half list (through the ``neighbor_pairs`` hook when there
    is one, which contracts to reproduce the numpy pairs exactly),
    mirrors it and lexsorts; that path leaves ``within`` as ``None``.
    """
    positions = np.asarray(positions)
    if positions.dtype != np.float32:
        positions = positions.astype(np.float64, copy=False)
    n = len(positions)
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return DirectedRows(empty, empty, None)
    # Open bounding box with one-cutoff margin; degenerate extents
    # (planar or linear local sets) still need positive edge lengths.
    lo = positions.min(axis=0) - rc
    hi = positions.max(axis=0) + rc
    box = Box(np.maximum(hi - lo, rc), periodic=np.zeros(3, dtype=bool), origin=lo)
    if n <= brute_force_max:
        i, j = brute_force_pairs(positions, box, rc)
    else:
        if kernels is not None:
            rows = kernels.directed_rows(
                positions, box, rc, sort_key, anchor_limit, count_cutoff
            )
            if rows is not None:
                return rows
        half = (
            None if kernels is None else kernels.neighbor_pairs(positions, box, rc)
        )
        i, j = (
            (half.i, half.j) if half is not None
            else cell_list_half_pairs(positions, box, rc)
        )
    if anchor_limit is None:
        di = np.concatenate([i, j])
        dj = np.concatenate([j, i])
    else:
        forward = i < anchor_limit
        reverse = j < anchor_limit
        di = np.concatenate([i[forward], j[reverse]])
        dj = np.concatenate([j[forward], i[reverse]])
    key = dj if sort_key is None else np.asarray(sort_key, dtype=np.int64)[dj]
    order = np.lexsort((key, di))
    return DirectedRows(di[order], dj[order], None)


@dataclass
class NeighborStats:
    """Bookkeeping counters the performance model consumes."""

    n_builds: int = 0
    n_checks: int = 0
    last_pairs: int = 0
    last_neighbors_per_atom: float = 0.0
    steps_since_build: int = 0
    total_steps: int = 0

    @property
    def rebuild_every(self) -> float:
        """Average number of timesteps between rebuilds."""
        if self.n_builds == 0:
            return float("inf")
        return self.total_steps / self.n_builds

    def state_dict(self) -> dict:
        """All counters, for checkpoint serialization."""
        return {
            "n_builds": self.n_builds,
            "n_checks": self.n_checks,
            "last_pairs": self.last_pairs,
            "last_neighbors_per_atom": self.last_neighbors_per_atom,
            "steps_since_build": self.steps_since_build,
            "total_steps": self.total_steps,
        }

    def load_state_dict(self, state: dict) -> None:
        self.n_builds = int(state["n_builds"])
        self.n_checks = int(state["n_checks"])
        self.last_pairs = int(state["last_pairs"])
        self.last_neighbors_per_atom = float(state["last_neighbors_per_atom"])
        self.steps_since_build = int(state["steps_since_build"])
        self.total_steps = int(state["total_steps"])


class NeighborList:
    """Verlet neighbor list with skin, backed by a cell list.

    Parameters
    ----------
    cutoff:
        Interaction cutoff distance.
    skin:
        Extra shell stored beyond the cutoff (LAMMPS ``neighbor`` skin).
    full:
        Store both directions of every pair (``newton off`` semantics).
    exclusions:
        Optional ``(M, 2)`` array of atom-index pairs to exclude (bonded
        1-2 / 1-3 partners whose non-bonded interaction is masked, as
        LAMMPS ``special_bonds`` does).
    brute_force_max:
        Atom count up to which the O(N^2) brute-force build is used
        instead of cell binning.  Set to 0 to force the cell-list path,
        or very large to force brute force (the tests use both, with
        brute force as the reference).

    Besides the flat ``pair_i`` / ``pair_j`` arrays, every build also
    publishes the same pairs in **CSR form**: ``csr_offsets`` (length
    ``n_atoms + 1``) and ``csr_neighbors`` such that atom ``a``'s stored
    partners are ``csr_neighbors[csr_offsets[a]:csr_offsets[a + 1]]``,
    sorted ascending.  ``pair_i``/``pair_j`` are kept in the matching
    row-major order (``pair_i`` non-decreasing), which is what lets the
    ``numpy_fast`` kernel backend use monotone segmented reductions.
    """

    def __init__(
        self,
        cutoff: float,
        skin: float,
        *,
        full: bool = False,
        exclusions: np.ndarray | None = None,
        brute_force_max: int = _BRUTE_FORCE_MAX_ATOMS,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.full = bool(full)
        self.brute_force_max = int(brute_force_max)
        if self.brute_force_max < 0:
            raise ValueError("brute_force_max must be non-negative")
        self.stats = NeighborStats()
        #: Span sink for rebuild instrumentation (no-op by default; the
        #: owning Simulation assigns its tracer).
        self.tracer = NULL_TRACER
        #: Optional kernel backend consulted for the cell-list build
        #: and the per-step skin check (the owning Simulation assigns
        #: its backend; the ``compiled`` backend replaces the numpy
        #: bin/filter/sort with one native pass that delivers the same
        #: rows exactly).  ``None`` — and any backend whose hooks
        #: return ``None`` — keeps the numpy path.
        self.kernels = None
        self._positions_at_build: np.ndarray | None = None
        self._box_lengths_at_build: np.ndarray | None = None
        self.pair_i = np.empty(0, dtype=np.int64)
        self.pair_j = np.empty(0, dtype=np.int64)
        self.csr_offsets = np.zeros(1, dtype=np.int64)
        self.csr_neighbors = np.empty(0, dtype=np.int64)
        self._excluded_keys: np.ndarray | None = None
        self._exclusions = (
            None
            if exclusions is None or len(exclusions) == 0
            else np.asarray(exclusions, dtype=np.int64).reshape(-1, 2)
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def list_cutoff(self) -> float:
        """The stored-pair cutoff, ``cutoff + skin``."""
        return self.cutoff + self.skin

    def build(self, system: AtomSystem) -> None:
        """(Re)construct the pair list for the current configuration."""
        with self.tracer.span("neigh.build", "neigh"):
            self._build(system)

    def _build(self, system: AtomSystem) -> None:
        box = system.box
        positions = box.wrap(system.positions)
        n = system.n_atoms
        rc = self.list_cutoff
        # Minimum-image pair search is only valid when the box is at
        # least two cutoffs wide in every periodic dimension.
        min_periodic = box.lengths[box.periodic]
        if len(min_periodic) and rc > 0.5 * float(np.min(min_periodic)):
            raise ValueError(
                f"cutoff+skin {rc:g} exceeds half the smallest periodic box "
                f"length {float(np.min(min_periodic)):g}; enlarge the system "
                "or shrink the cutoff"
            )

        # Producers that emit row-major (i, then j) pairs spare the
        # build its sort: np.triu_indices walks i < j in exactly that
        # order, and a native build contracts to (and also hands over
        # its row offsets and within-cutoff count).
        offsets = within = None
        presorted = True
        if n <= self.brute_force_max or not self._can_bin(box, rc):
            with self.tracer.span("neigh.brute_pairs", "neigh"):
                i, j = brute_force_pairs(positions, box, rc)
        else:
            with self.tracer.span("neigh.cell_pairs", "neigh"):
                rows = (
                    self.kernels.neighbor_pairs(positions, box, rc, self.cutoff)
                    if self.kernels is not None
                    else None
                )
                if rows is not None:
                    i, j, offsets, within = rows
                else:
                    i, j = cell_list_half_pairs(positions, box, rc)
                    presorted = False

        if self._exclusions is not None:
            if self._excluded_keys is None or len(self._excluded_keys) == 0:
                # Cached across rebuilds: the exclusion topology is static.
                self._excluded_keys = np.unique(
                    _encode_pairs(self._exclusions[:, 0], self._exclusions[:, 1], n)
                )
            keys = _encode_pairs(i, j, n)
            keep = ~_isin_sorted(keys, self._excluded_keys)
            # Order-preserving, but the producer's offsets and count
            # describe the unfiltered rows.
            i, j = i[keep], j[keep]
            offsets = within = None

        if self.full:
            pair_i = np.concatenate([i, j])
            pair_j = np.concatenate([j, i])
            presorted = False
            offsets = None
        else:
            pair_i, pair_j = i, j

        # CSR packing: row-major (i, then j) order, offsets per atom.
        if not presorted:
            order = np.lexsort((pair_j, pair_i))
            pair_i, pair_j = pair_i[order], pair_j[order]
        if offsets is None:
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(pair_i, minlength=n), out=offsets[1:])
        self.pair_i = pair_i
        self.pair_j = pair_j
        self.csr_offsets = offsets
        self.csr_neighbors = self.pair_j

        self._positions_at_build = positions  # wrap() made this array
        self._box_lengths_at_build = box.lengths.copy()
        self.stats.n_builds += 1
        self.stats.steps_since_build = 0
        self.stats.last_pairs = len(self.pair_i)
        # Neighbors/atom counted within the *cutoff* (Table 2 convention),
        # not within cutoff + skin.
        if within is None and self.kernels is not None:
            within = self.kernels.count_pairs_within(
                positions, box, i, j, self.cutoff
            )
        if within is None:
            dr = box.minimum_image(positions[i] - positions[j])
            r2 = np.einsum("ij,ij->i", dr, dr)
            within = int(np.count_nonzero(r2 < self.cutoff * self.cutoff))
        self.stats.last_neighbors_per_atom = 2.0 * within / n

    @staticmethod
    def _can_bin(box: Box, rc: float) -> bool:
        """Cell binning needs at least three cells along each periodic dim."""
        n_cells = np.floor(box.lengths / rc).astype(int)
        return bool(np.all(np.where(box.periodic, n_cells >= 3, n_cells >= 1)))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def needs_rebuild(self, system: AtomSystem) -> bool:
        """True if some atom moved more than half the skin since build."""
        self.stats.n_checks += 1
        if self._positions_at_build is None:
            return True
        if len(self._positions_at_build) != system.n_atoms:
            return True
        if not np.allclose(self._box_lengths_at_build, system.box.lengths):
            return True
        max_sq = (
            self.kernels.max_displacement_sq(
                system.positions, self._positions_at_build, system.box
            )
            if self.kernels is not None
            else None
        )
        if max_sq is None:
            disp = system.box.minimum_image(
                system.box.wrap(system.positions) - self._positions_at_build
            )
            max_sq = float(np.max(np.einsum("ij,ij->i", disp, disp)))
        return max_sq > (0.5 * self.skin) ** 2

    def ensure(self, system: AtomSystem) -> bool:
        """Rebuild if stale; returns whether a rebuild happened."""
        self.stats.total_steps += 1
        self.stats.steps_since_build += 1
        if self.needs_rebuild(system):
            self.build(system)
            return True
        return False

    def export_build_state(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The (wrapped) positions and box lengths of the last build.

        This is what a bit-exact restart needs: rebuilding the list from
        these inputs reproduces the stored pair *ordering* (hence the
        floating-point summation order of every subsequent force pass)
        and keeps the skin-displacement rebuild cadence on the original
        schedule.  Returns ``None`` before the first build.
        """
        if self._positions_at_build is None:
            return None
        return (
            self._positions_at_build.copy(),
            self._box_lengths_at_build.copy(),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_pairs(
        self, system: AtomSystem, cutoff: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pairs currently within ``cutoff`` with fresh geometry.

        Returns ``(i, j, dr, r)`` where ``dr = x_i - x_j`` under minimum
        image and ``r`` its norm.  ``cutoff`` defaults to the list cutoff
        (without skin), which is what force kernels want.
        """
        if self._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        rc = self.cutoff if cutoff is None else float(cutoff)
        dr = system.box.minimum_image(
            system.positions[self.pair_i] - system.positions[self.pair_j]
        )
        r2 = np.einsum("ij,ij->i", dr, dr)
        mask = r2 < rc * rc
        i, j, dr = self.pair_i[mask], self.pair_j[mask], dr[mask]
        return i, j, dr, np.sqrt(r2[mask])

    def neighbors_of(self, atom: int) -> np.ndarray:
        """Stored partners of ``atom`` (CSR row; sorted ascending)."""
        return self.csr_neighbors[
            self.csr_offsets[atom] : self.csr_offsets[atom + 1]
        ]
