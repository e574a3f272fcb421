"""Ownership assignment and ghost (halo) selection for subdomains.

The decomposition is the uniform LAMMPS brick: :func:`repro.parallel.
decomposition.proc_grid` factors the worker count into a 3-D grid and
each worker owns one axis-aligned cell of the box.  Periodic boundaries
are realized by *ghost images*: a worker's halo holds shifted copies
``position + s * L`` (``s`` in ``{-1, 0, 1}`` per periodic dimension) of
every atom that lands within the halo width of its subdomain, so the
local pair search runs with plain Euclidean distances and no
minimum-image logic — exactly how a distributed MD code sees its ghost
atoms after the exchange.

Everything here is a pure function of the wrapped positions, the box
and the grid, so the master and every worker compute *identical*
assignments without communicating anything beyond the arrays already in
shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["assign_owners", "domain_bounds", "select_ghosts", "LocalIndex"]


def assign_owners(
    positions: np.ndarray,
    origin: np.ndarray,
    lengths: np.ndarray,
    grid: tuple[int, int, int],
) -> np.ndarray:
    """Owning worker (flattened grid cell) for each *wrapped* position.

    Ownership is defined by index arithmetic — ``floor((p - origin) /
    sub_length)`` clipped into the grid — rather than interval tests, so
    an atom sitting exactly on a face (including the upper box face,
    where floating-point wrap can land it) gets exactly one owner.
    """
    grid_arr = np.asarray(grid, dtype=np.int64)
    sub = np.asarray(lengths, dtype=float) / grid_arr
    idx = np.floor((np.asarray(positions) - origin) / sub).astype(np.int64)
    idx = np.clip(idx, 0, grid_arr - 1)
    strides = np.array([grid_arr[1] * grid_arr[2], grid_arr[2], 1], dtype=np.int64)
    return idx @ strides


def domain_bounds(
    worker: int,
    origin: np.ndarray,
    lengths: np.ndarray,
    grid: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` corner coordinates of one worker's subdomain."""
    coords = np.array(np.unravel_index(worker, grid), dtype=float)
    sub = np.asarray(lengths, dtype=float) / np.asarray(grid, dtype=float)
    lo = np.asarray(origin, dtype=float) + coords * sub
    return lo, lo + sub


def select_ghosts(
    positions: np.ndarray,
    owners: np.ndarray,
    worker: int,
    lo: np.ndarray,
    hi: np.ndarray,
    width: float,
    lengths: np.ndarray,
    periodic: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Halo atoms of one subdomain: ``(global_ids, integer shifts)``.

    Covers the up-to-27 periodic images of every atom and keeps those
    whose shifted position falls within ``width`` of ``[lo, hi]``.  An
    image is inside iff it is inside along each dimension, so the
    interval test runs once per dimension and shift (at most nine
    sweeps over the atoms) and each image is the AND of three of those
    masks.  The unshifted image of the worker's own atoms is excluded
    (those are the owned locals); *shifted* self-images are kept — with
    a single grid cell along a periodic dimension a domain neighbors
    itself, and its halo must contain its own atoms' wrap-around copies.

    The enumeration order (shift-major, ascending global id within each
    shift) is deterministic, which keeps worker-local atom numbering —
    and hence every downstream reduction — reproducible run to run.
    """
    positions = np.asarray(positions, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    axes = [(-1, 0, 1) if periodic[d] else (0,) for d in range(3)]
    inside = []
    for d in range(3):
        column = positions[:, d]
        masks = {}
        for s in axes[d]:
            shifted = column + s * lengths[d]
            masks[s] = (shifted >= lo[d] - width) & (shifted <= hi[d] + width)
        inside.append(masks)
    gids: list[np.ndarray] = []
    shifts: list[np.ndarray] = []
    for shift in product(*axes):
        image = inside[0][shift[0]] & inside[1][shift[1]] & inside[2][shift[2]]
        if shift == (0, 0, 0):
            image &= owners != worker
        selected = np.flatnonzero(image)
        if len(selected):
            gids.append(selected)
            shifts.append(
                np.broadcast_to(np.array(shift, dtype=np.int64), (len(selected), 3))
            )
    if not gids:
        return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
    return np.concatenate(gids), np.concatenate(shifts)


@dataclass
class LocalIndex:
    """One worker's frozen local atom set (rebuilt with the lists).

    ``gids`` maps local index -> global atom id, owned atoms first
    (ascending id) followed by halo atoms; ``shifts`` holds the integer
    periodic image of each local atom (zero for owned), so the local
    coordinates at any later step are ``wrapped[gids] + shifts * L`` with
    the *current* box lengths — NPT rescales between rebuilds stay
    consistent without re-selecting the halo.
    """

    gids: np.ndarray
    shifts: np.ndarray
    n_owned: int

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        origin: np.ndarray,
        lengths: np.ndarray,
        periodic: np.ndarray,
        grid: tuple[int, int, int],
        worker: int,
        halo_width: float,
    ) -> "LocalIndex":
        owners = assign_owners(positions, origin, lengths, grid)
        owned = np.flatnonzero(owners == worker)
        lo, hi = domain_bounds(worker, origin, lengths, grid)
        ghost_ids, ghost_shifts = select_ghosts(
            positions, owners, worker, lo, hi, halo_width, lengths, periodic
        )
        gids = np.concatenate([owned, ghost_ids])
        shifts = np.concatenate(
            [np.zeros((len(owned), 3), dtype=np.int64), ghost_shifts]
        )
        return cls(gids=gids, shifts=shifts, n_owned=len(owned))

    @property
    def n_local(self) -> int:
        return len(self.gids)

    def local_positions(self, wrapped: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Local coordinates (ghosts shifted) for the current step."""
        return wrapped[self.gids] + self.shifts * np.asarray(lengths, dtype=float)
