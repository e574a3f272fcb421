"""Spatial domain decomposition: the processor grid.

LAMMPS factorizes the rank count into a 3-D processor grid that
minimizes subdomain surface area (communication volume scales with the
surface times the ghost-shell depth — the paper's own estimate in
Section 5.1 is ``O(6 L^2 * cutoff_range * d)`` transferred vs
``O(L^3 * npa_avg * d)`` computed per subdomain).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["proc_grid"]


@lru_cache(maxsize=None)
def _factor_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All ordered triples ``(px, py, pz)`` with ``px py pz == n``."""
    triples = []
    for px in range(1, n + 1):
        if n % px:
            continue
        rem = n // px
        for py in range(1, rem + 1):
            if rem % py:
                continue
            triples.append((px, py, rem // py))
    return tuple(triples)


def proc_grid(
    n_ranks: int, box_lengths: np.ndarray, *, quasi_2d: bool = False
) -> tuple[int, int, int]:
    """Choose the processor grid minimizing total subdomain surface.

    ``quasi_2d`` restricts the grid to the x/y plane (``pz = 1``) — the
    Chute bed is a thin slab, so LAMMPS never splits its z dimension.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    box_lengths = np.asarray(box_lengths, dtype=float)
    best: tuple[int, int, int] | None = None
    best_surface = float("inf")
    for px, py, pz in _factor_triples(n_ranks):
        if quasi_2d and pz != 1:
            continue
        sub = box_lengths / np.array([px, py, pz])
        surface = 2.0 * (sub[0] * sub[1] + sub[1] * sub[2] + sub[0] * sub[2])
        if surface < best_surface:
            best_surface = surface
            best = (px, py, pz)
    assert best is not None  # n_ranks >= 1 always yields (n, 1, 1) at worst
    return best
