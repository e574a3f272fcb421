"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.md import neighbor
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.state import STATE_ARRAYS


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20220707)


@contextlib.contextmanager
def brute_force_up_to(limit: int):
    """Neighbor builds search all pairs up to ``limit`` atoms and bin
    above it (``neighbor.BRUTE_FORCE_MAX_ATOMS``): 0 bins every build,
    a huge limit none.  A context manager, so a hypothesis test can
    hold it for one example."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighbor, "BRUTE_FORCE_MAX_ATOMS", limit)
        yield


@pytest.fixture
def cell_lists():
    """Every neighbor build in the test bins, however few its atoms."""
    with brute_force_up_to(0):
        yield


@pytest.fixture
def cubic_box() -> Box:
    return Box([10.0, 10.0, 10.0])


@pytest.fixture
def small_gas(cubic_box, rng) -> AtomSystem:
    """Fifty non-interacting particles with random state."""
    positions = rng.uniform(0.0, 10.0, size=(50, 3))
    system = AtomSystem(positions, cubic_box)
    system.seed_velocities(1.0, rng)
    return system


def finite_difference_forces(energy_fn, positions: np.ndarray, h: float = 1e-6):
    """Central-difference gradient of ``energy_fn`` (−∇E).

    ``energy_fn`` takes an ``(N, 3)`` array and returns a scalar energy.
    The shared oracle for every analytic-force test.
    """
    positions = np.asarray(positions, dtype=float)
    forces = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for d in range(3):
            plus = positions.copy()
            minus = positions.copy()
            plus[i, d] += h
            minus[i, d] -= h
            forces[i, d] = -(energy_fn(plus) - energy_fn(minus)) / (2.0 * h)
    return forces


def assert_same_arrays(got: AtomSystem, want: AtomSystem) -> None:
    """Every row of ``STATE_ARRAYS`` equal in dtype and bytes (so -0.0
    and 0.0 differ), or absent on both systems."""
    for row in STATE_ARRAYS:
        a, b = row.get(got), row.get(want)
        assert (a is None) == (b is None), row.name
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), row.name


def huge_grid_case(scale=1):
    """1 000 atoms near the origin of an open box 2^22 x 2^21 x 2^21
    cells of ``rc / 2`` on a side (times ``scale``), one atom in the far
    corner — whose flat cell index is where a wrapped product bites."""
    rc = 2.0
    lengths = np.array([2.0**22, 2.0**21, 2.0**21]) * (rc / 2) * scale
    positions = np.random.default_rng(7).uniform(0, 30, (1000, 3))
    positions[-1] = lengths - 0.25
    return positions, Box(lengths, periodic=(False,) * 3), rc


def leak_check():
    """Generator body of the package-scoped leak gate.

    ``tests/parallel``, ``tests/reliability`` and ``tests/service`` wrap
    this in an autouse fixture: whatever a package's tests spawn, map or
    open must be gone again when its last test finishes — no live worker
    child, no new ``/dev/shm`` segment, the open-fd count back where it
    started.
    """
    import gc
    import multiprocessing as mp
    import os
    from multiprocessing import resource_tracker

    def shm_segments():
        try:
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
        except FileNotFoundError:  # no POSIX shm mount on this platform
            return set()

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    # The resource tracker starts on first shared-memory use and keeps
    # one pipe for the life of the session: not a leak, so warm it up
    # before taking the baseline.
    resource_tracker.ensure_running()
    gc.collect()
    segments_before, fds_before = shm_segments(), open_fds()
    yield
    gc.collect()
    workers = [
        child.name
        for child in mp.active_children()
        if child.name.startswith(("repro-worker-", "repro-service-worker-"))
    ]
    assert not workers, f"worker processes still alive: {workers}"
    leaked = shm_segments() - segments_before
    assert not leaked, f"shared-memory segments left behind: {sorted(leaked)}"
    assert open_fds() <= fds_before, (
        f"open file descriptors grew from {fds_before} to {open_fds()}"
    )
