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
from dataclasses import dataclass, field

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels.base import CsrRows
from repro.observability.tracer import NULL_TRACER

__all__ = [
    "NeighborList",
    "NeighborStats",
    "brute_force_pairs",
    "cell_list_half_pairs",
    "drop_excluded_pairs",
    "row_heads",
    "subdomain_directed_pairs",
]

#: Atom count up to which a build searches all pairs directly: below
#: it a vectorized O(N^2) pass is faster than cell binning in numpy and
#: trivially correct; above it we bin.  Read at every build, so a test
#: can patch it to force either path.
BRUTE_FORCE_MAX_ATOMS = 800

#: Most link cells a build will bin into (LAMMPS' "Too many neighbor
#: bins" bound, a 32-bit count): past it the per-cell tables alone are
#: tens of GiB.  The native builds decline such a grid (their own
#: ``INT32_MAX`` test), which lands the caller here.
MAX_CELLS = int(np.iinfo(np.int32).max)


#: The inner rows' band beyond the cutoff as a fraction of the skin:
#: ``b`` in their validity rule ``2 max_disp + |dL| <= b``.  At one half
#: they hold until an atom has moved a quarter of the skin (the stored
#: rows hold to half); ``docs/PERFORMANCE.md`` §2.3 records why no
#: narrower band was taken.
INNER_SKIN_FRACTION = 0.5


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
    lo = np.minimum(i, j).astype(np.int64, copy=False)
    hi = np.maximum(i, j).astype(np.int64, copy=False)
    return lo * np.int64(n) + hi


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _row_offsets(i: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets (length ``n + 1``) of the rows the heads ``i`` fill."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=offsets[1:])
    return offsets


def row_heads(offsets: np.ndarray) -> np.ndarray:
    """The head of every pair of the CSR rows ``offsets``: the inverse
    of :func:`_row_offsets`, what a numpy body reads beside the
    partners."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


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


def drop_excluded_pairs(
    rows: CsrRows, excluded: np.ndarray, n_ids: int, ids: np.ndarray | None = None
) -> CsrRows:
    """``rows`` without the pairs whose :func:`_encode_pairs` key over
    ``n_ids`` atom ids is in the sorted ``excluded``, survivors in order:
    the exclusion filter of both drivers.  ``ids`` maps the rows' atom
    indices to those ids (an engine worker's global ids)."""
    offsets, partners = rows
    if len(excluded) == 0 or len(partners) == 0:
        return rows
    heads = row_heads(offsets)
    ends = (heads, partners) if ids is None else (ids[heads], ids[partners])
    keep = ~_isin_sorted(_encode_pairs(*ends, n_ids), excluded)
    return CsrRows(_row_offsets(heads[keep], len(offsets) - 1), partners[keep])


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
    anchor_limit: int | None = None,
    kernels=None,
) -> CsrRows:
    """Directed CSR rows over a subdomain's local atom set.

    The parallel engine hands each worker its owned atoms plus
    ghost-shifted halo copies; periodicity is realized by the ghost
    images, so the local search runs in an *open* (non-periodic)
    bounding box with plain Euclidean distances.  Every unordered pair
    within ``rc`` lands in both atoms' rows — the serial list's layout,
    offsets of length ``n_local + 1`` — each row sorted by
    ``sort_key`` of its partners: passing the global atom ids makes
    each atom's neighbor row canonically ordered regardless of how the
    domain was decomposed, which is what keeps parallel force sums
    bitwise reproducible across worker counts.

    ``anchor_limit`` keeps only the rows whose head is below it (the
    rows past it are empty).  Owned locals come first in the worker's
    numbering, so passing ``n_owned`` drops every ghost-headed row — the
    rows a one-sided owner-computes pass never reads (EAM is the
    exception: its density pass needs the ghost-headed rows and must
    not set this).  The surviving rows are bitwise the same rows of the
    unrestricted list.

    ``kernels`` optionally supplies a
    :class:`~repro.md.kernels.base.KernelBackend`, whose
    ``directed_rows`` hook is asked first at every size: the compiled
    backend bins once, walks the full stencil over the anchors and sorts
    each row by ``sort_key`` in the kernel, returning these very rows
    with no half list, mirror or sort.  When it declines — float32
    positions, no native provider, tied sort keys — the body below
    builds the numpy half list (all pairs at or below the brute-force
    crossover, link cells above it), mirrors it and lexsorts.
    """
    positions = np.asarray(positions)
    if positions.dtype != np.float32:
        positions = positions.astype(np.float64, copy=False)
    n = len(positions)
    if n < 2:
        return CsrRows(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    # Open bounding box with one-cutoff margin; degenerate extents
    # (planar or linear local sets) still need positive edge lengths.
    lo = positions.min(axis=0) - rc
    hi = positions.max(axis=0) + rc
    box = Box(np.maximum(hi - lo, rc), periodic=np.zeros(3, dtype=bool), origin=lo)
    if kernels is not None:
        rows = kernels.directed_rows(positions, box, rc, sort_key, anchor_limit)
        if rows is not None:
            return rows
    if n <= BRUTE_FORCE_MAX_ATOMS:
        i, j = brute_force_pairs(positions, box, rc)
    else:
        i, j = cell_list_half_pairs(positions, box, rc)
    return _mirrored_rows(i, j, n, sort_key, anchor_limit)


def _mirrored_rows(
    i: np.ndarray,
    j: np.ndarray,
    n: int,
    sort_key: np.ndarray | None = None,
    anchor_limit: int | None = None,
) -> CsrRows:
    """The half pairs ``(i, j)`` over ``n`` atoms in both directions, as
    CSR rows: rows headed by atoms below ``anchor_limit`` only (all when
    ``None``), each row sorted by ``sort_key`` of its partners (by index
    when ``None``)."""
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
    return CsrRows(_row_offsets(di, n), dj[order])


@dataclass
class NeighborStats:
    """Bookkeeping counters the performance model consumes."""

    n_builds: int = 0
    last_pairs: int = 0
    steps_since_build: int = 0
    total_steps: int = 0
    #: Inner-row sweeps (:meth:`NeighborList.inner_rows`), and the pairs
    #: the last one kept: work this process did, not state a trajectory
    #: continues from, so snapshots leave them out.
    n_prunes: int = field(default=0, metadata={"snapshot": False})
    last_inner_pairs: int = field(default=0, metadata={"snapshot": False})

    @property
    def rebuild_every(self) -> float:
        """Average number of timesteps between rebuilds."""
        if self.n_builds == 0:
            return float("inf")
        return self.total_steps / self.n_builds


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

    A build stores its pairs as **CSR rows** and nothing else:
    ``csr_offsets`` (length ``n_atoms + 1``) and ``csr_neighbors`` such
    that atom ``a``'s stored partners are
    ``csr_neighbors[csr_offsets[a]:csr_offsets[a + 1]]``, sorted
    ascending.  Every native pass over the list reads those rows.
    :attr:`pair_i`, the head of each stored pair, is a read-only
    expansion of ``csr_offsets`` for the numpy bodies, derived on its
    first read after a build and dropped by the next build.

    A pass that reads CSR rows may ask for **inner rows** instead
    (:meth:`inner_rows`): the stored pairs that were within ``cutoff +
    b`` at the build, pruned once per build by the kernel backend.
    """

    def __init__(
        self,
        cutoff: float,
        skin: float,
        *,
        full: bool = False,
        exclusions: np.ndarray | None = None,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.full = bool(full)
        self.stats = NeighborStats()
        #: Span sink for rebuild instrumentation and for the kernel spans
        #: of the serial rows read from this list (no-op by default; the
        #: owning Simulation assigns its tracer).
        self.tracer = NULL_TRACER
        #: Optional kernel backend consulted for the half-pair build
        #: and the per-step skin check (the owning Simulation assigns
        #: its backend; the ``compiled`` backend replaces the numpy
        #: all-pairs search or bin/filter/sort with one native pass that
        #: delivers the same rows exactly).  ``None`` — and any backend
        #: whose hooks return ``None`` — keeps the numpy path.
        self.kernels = None
        self._positions_at_build: np.ndarray | None = None
        self._box_at_build: Box | None = None
        self.csr_offsets = np.zeros(1, dtype=np.int64)
        self.csr_neighbors = np.empty(0, dtype=np.int64)
        # ``(csr_offsets, pair_i)`` once a numpy body has read the heads.
        self._heads: tuple[np.ndarray, np.ndarray] | None = None
        # This build's inner rows once pruned, and whether they are
        # closed to readers until the next build (lapsed or declined).
        self._inner: tuple[np.ndarray, np.ndarray] | None = None
        self._inner_closed = False
        self._excluded_keys: tuple[int, np.ndarray] | None = None
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
        self.check_box(box)
        offsets, j = self._half_pairs(positions, box, self.list_cutoff)
        if self.full:
            offsets, j = _mirrored_rows(row_heads(offsets), j, n)
        self.csr_offsets = offsets
        self.csr_neighbors = j
        # wrap() made ``positions``: the build may keep it uncopied.
        self.record_build(positions, box, len(j))

    @property
    def pair_i(self) -> np.ndarray:
        """The head of every stored pair, row-major (non-decreasing),
        beside ``csr_neighbors``: a read-only expansion of
        ``csr_offsets``, derived on the first read after a build."""
        if self._heads is None or self._heads[0] is not self.csr_offsets:
            heads = row_heads(self.csr_offsets)
            heads.flags.writeable = False
            self._heads = self.csr_offsets, heads
        return self._heads[1]

    def _half_pairs(self, positions: np.ndarray, box: Box, rc: float) -> CsrRows:
        """The half pairs of the wrapped ``positions`` within ``rc`` as
        row-major (i, then j) CSR rows, exclusions dropped.

        np.triu_indices walks i < j in that order and a native build
        contracts to it; the numpy link-cell pairs are lexsorted into it.

        The span names the algorithm (``neigh.brute_pairs`` or
        ``neigh.cell_pairs``), whichever producer — the backend's
        ``neighbor_pairs`` hook or numpy — runs it.
        """
        n = len(positions)
        brute = n <= BRUTE_FORCE_MAX_ATOMS or not self._can_bin(box, rc)
        with self.tracer.span(
            "neigh.brute_pairs" if brute else "neigh.cell_pairs", "neigh"
        ):
            rows = (
                self.kernels.neighbor_pairs(positions, box, rc, brute=brute)
                if self.kernels is not None
                else None
            )
            if rows is None:
                if brute:
                    i, j = brute_force_pairs(positions, box, rc)
                else:
                    i, j = cell_list_half_pairs(positions, box, rc)
                    j = j[np.lexsort((j, i))]
                rows = CsrRows(_row_offsets(i, n), j)
        excluded = self.excluded_keys(n)
        if excluded is not None:
            rows = drop_excluded_pairs(rows, excluded, n)
        return rows

    def excluded_keys(self, n_atoms: int) -> np.ndarray | None:
        """The exclusion pairs as sorted :func:`_encode_pairs` keys over
        ``n_atoms`` atoms, or ``None`` without exclusions.  Encoded
        once: the exclusion topology is static."""
        if self._exclusions is None:
            return None
        if self._excluded_keys is None or self._excluded_keys[0] != n_atoms:
            keys = np.unique(_encode_pairs(*self._exclusions.T, n_atoms))
            self._excluded_keys = (n_atoms, keys)
        return self._excluded_keys[1]

    def neighbors_per_atom(self) -> float:
        """Neighbors per atom within the force cutoff at the last build:
        Table 2's statistic (LAMMPS' "Ave neighs/atom").

        Measured when asked, by the build's own half-pair producer at
        :attr:`cutoff` (not ``cutoff + skin``) over the positions and box
        of the last build, exclusions dropped.  Each unordered pair is a
        neighbor of both its atoms, whichever flavour the list stores.
        """
        if self._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        positions = self._positions_at_build
        rows = self._half_pairs(positions, self._box_at_build, self.cutoff)
        return 2 * len(rows.partners) / len(positions)

    def check_box(self, box: Box) -> None:
        """Refuse a box too small for minimum-image pair search.

        The search is only valid when the box is at least two list
        cutoffs wide in every periodic dimension.
        """
        rc = self.list_cutoff
        min_periodic = box.lengths[box.periodic]
        if len(min_periodic) and rc > 0.5 * float(np.min(min_periodic)):
            raise ValueError(
                f"cutoff+skin {rc:g} exceeds half the smallest periodic box "
                f"length {float(np.min(min_periodic)):g}; enlarge the system "
                "or shrink the cutoff"
            )

    def record_build(self, positions: np.ndarray, box: Box, n_pairs: int) -> None:
        """Record a build of ``n_pairs`` stored pairs over the wrapped
        ``positions`` in ``box``.  The skin check measures displacements
        from here, and :meth:`neighbors_per_atom` measures here."""
        self._positions_at_build = positions
        self._box_at_build = box.copy()
        self._inner, self._inner_closed = None, False
        self._heads = None
        self.stats.n_builds += 1
        self.stats.steps_since_build = 0
        self.stats.last_pairs = n_pairs

    @staticmethod
    def _can_bin(box: Box, rc: float) -> bool:
        """Cell binning needs at least three cells along each periodic dim."""
        n_cells = np.floor(box.lengths / rc).astype(int)
        return bool(np.all(np.where(box.periodic, n_cells >= 3, n_cells >= 1)))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def needs_rebuild(self, system: AtomSystem) -> bool:
        """True if the skin no longer covers the motion since the build.

        A box change is charged against the skin first, as LAMMPS'
        ``Neighbor::check_distance`` does: an image shift moves a pair's
        separation by at most ``|L_now - L_build|``, and each partner's
        own displacement adds at most ``max_disp``, so while
        ``2 * max_disp + |dL| <= skin`` every pair now inside the cutoff
        was inside ``cutoff + skin`` at the build and is stored.  The
        trigger is therefore ``max_disp > delta`` with ``delta = (skin -
        |dL|) / 2``; at constant box that is the plain half-skin test.
        """
        if self._positions_at_build is None:
            return True
        if len(self._positions_at_build) != system.n_atoms:
            return True
        delta = self._half_slack(system, self.skin)
        if delta <= 0:
            return True
        return self._max_displacement_sq(system) > delta**2

    def _half_slack(self, system: AtomSystem, band: float) -> float:
        """``(band - |L_now - L_build|) / 2``: the displacement every atom
        may have made since the build while each pair now inside the
        cutoff was inside ``cutoff + band`` then."""
        drift = float(np.linalg.norm(system.box.lengths - self._box_at_build.lengths))
        return 0.5 * (band - drift)

    def _max_displacement_sq(self, system: AtomSystem) -> float:
        """Largest squared minimum-image displacement of an atom since
        the build, on the current positions."""
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
        return max_sq

    def inner_rows(
        self, system: AtomSystem, cutoff: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """CSR ``(offsets, partners)`` holding, in the stored order,
        every stored pair now within ``cutoff``, or ``None``: read the
        stored rows.

        The inner rows are the stored pairs that were within the list's
        cutoff + ``b`` (:data:`INNER_SKIN_FRACTION` of the skin) at the
        build positions, swept by the kernel backend's ``prune_rows`` on
        the first call after the build's step — never on it, so a list
        read once pays nothing.  They hold every pair now within ``cutoff`` (at most the
        list's) while ``2 max_disp + |dL| <= b``, the skin rule with
        ``b`` for the skin, checked here on the current positions at
        every call.  Once that fails, or the backend declines the sweep,
        they stay closed until the next build.  The survivors a pass
        keeps from them, and their order, are therefore those of the
        stored rows.
        """
        if (
            self._inner_closed
            or self.kernels is None
            or self._positions_at_build is None
            or self.stats.steps_since_build == 0
            or cutoff > self.cutoff
            or len(self._positions_at_build) != system.n_atoms
        ):
            return None
        band = INNER_SKIN_FRACTION * self.skin
        delta = self._half_slack(system, band)
        if not (delta > 0 and self._max_displacement_sq(system) <= delta**2):
            self._inner, self._inner_closed = None, True
            return None
        if self._inner is None:
            with self.tracer.span("neigh.prune", "neigh"):
                self._inner = self.kernels.prune_rows(
                    self._positions_at_build, self._box_at_build,
                    self.csr_offsets, self.csr_neighbors,
                    self.cutoff + band,
                )
            if self._inner is None:
                self._inner_closed = True
                return None
            self.stats.n_prunes += 1
            self.stats.last_inner_pairs = len(self._inner[1])
        return self._inner

    def step_needs_rebuild(self, system: AtomSystem) -> bool:
        """Count one step toward the rebuild cadence, then
        :meth:`needs_rebuild`."""
        self.stats.total_steps += 1
        self.stats.steps_since_build += 1
        return self.needs_rebuild(system)

    def ensure(self, system: AtomSystem) -> bool:
        """Rebuild if stale; returns whether a rebuild happened."""
        if self.step_needs_rebuild(system):
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
        return self._positions_at_build.copy(), self._box_at_build.lengths.copy()

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
        pair_i, pair_j = self.pair_i, self.csr_neighbors
        dr = system.box.minimum_image(
            system.positions[pair_i] - system.positions[pair_j]
        )
        r2 = np.einsum("ij,ij->i", dr, dr)
        mask = r2 < rc * rc
        return pair_i[mask], pair_j[mask], dr[mask], np.sqrt(r2[mask])
