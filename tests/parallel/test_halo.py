"""Tests for ownership assignment, ghost selection and subdomain lists."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import Box
from repro.md.neighbor import brute_force_pairs, subdomain_directed_pairs
from repro.parallel.decomposition import proc_grid
from repro.parallel.halo import (
    LocalIndex,
    assign_owners,
    domain_bounds,
    select_ghosts,
)


@pytest.fixture
def box() -> Box:
    return Box([8.0, 6.0, 5.0])


@pytest.fixture
def positions(box, rng) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(300, 3)) * box.lengths


class TestAssignOwners:
    def test_total_partition(self, box, positions):
        grid = proc_grid(4, box.lengths)
        owners = assign_owners(positions, box.origin, box.lengths, grid)
        n_workers = int(np.prod(grid))
        assert owners.min() >= 0
        assert owners.max() < n_workers
        assert len(owners) == len(positions)

    def test_face_atom_gets_single_owner(self, box):
        """Atoms exactly on a subdomain face (or the upper box face)."""
        grid = (2, 2, 1)
        faces = np.array(
            [
                [4.0, 1.0, 1.0],  # internal x-face
                [1.0, 3.0, 1.0],  # internal y-face
                [8.0, 6.0, 5.0],  # upper box corner (wrap can land here)
                [0.0, 0.0, 0.0],
            ]
        )
        owners = assign_owners(faces, box.origin, box.lengths, grid)
        assert owners.min() >= 0
        assert owners.max() < 4

    def test_matches_domain_bounds(self, box, positions):
        grid = proc_grid(8, box.lengths)
        owners = assign_owners(positions, box.origin, box.lengths, grid)
        for worker in range(int(np.prod(grid))):
            lo, hi = domain_bounds(worker, box.origin, box.lengths, grid)
            mine = positions[owners == worker]
            assert np.all(mine >= lo - 1e-12)
            assert np.all(mine <= hi + 1e-12)


class TestSelectGhosts:
    def test_ghosts_land_in_halo_shell(self, box, positions):
        grid = (2, 1, 1)
        width = 1.2
        owners = assign_owners(positions, box.origin, box.lengths, grid)
        lo, hi = domain_bounds(0, box.origin, box.lengths, grid)
        gids, shifts = select_ghosts(
            positions, owners, 0, lo, hi, width, box.lengths, box.periodic
        )
        shifted = positions[gids] + shifts * box.lengths
        assert np.all(shifted >= lo - width - 1e-12)
        assert np.all(shifted <= hi + width + 1e-12)

    def test_unshifted_own_atoms_excluded(self, box, positions):
        grid = (2, 1, 1)
        owners = assign_owners(positions, box.origin, box.lengths, grid)
        lo, hi = domain_bounds(0, box.origin, box.lengths, grid)
        gids, shifts = select_ghosts(
            positions, owners, 0, lo, hi, 1.2, box.lengths, box.periodic
        )
        unshifted = ~shifts.any(axis=1)
        assert not np.any(owners[gids[unshifted]] == 0)

    def test_single_domain_halo_is_own_shifted_images(self, box, positions):
        """With one grid cell the domain neighbors itself periodically."""
        owners = np.zeros(len(positions), dtype=np.int64)
        lo, hi = domain_bounds(0, box.origin, box.lengths, (1, 1, 1))
        gids, shifts = select_ghosts(
            positions, owners, 0, lo, hi, 1.0, box.lengths, box.periodic
        )
        assert len(gids) > 0
        # every halo entry is a *shifted* image here
        assert np.all(shifts.any(axis=1))


def _select_ghosts_by_image_scan(
    positions, owners, worker, lo, hi, width, lengths, periodic
):
    """The original ``select_ghosts``: one full-array interval test per
    periodic image (up to 27 scans).  Kept as the oracle for the
    per-dimension-mask implementation."""
    positions = np.asarray(positions, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    gids, shifts = [], []
    axes = [(-1, 0, 1) if periodic[d] else (0,) for d in range(3)]
    for shift in product(*axes):
        shift_arr = np.array(shift, dtype=np.int64)
        shifted = positions + shift_arr * lengths
        inside = np.all(shifted >= lo - width, axis=1) & np.all(
            shifted <= hi + width, axis=1
        )
        if shift == (0, 0, 0):
            inside &= owners != worker
        selected = np.flatnonzero(inside)
        if len(selected):
            gids.append(selected)
            shifts.append(np.broadcast_to(shift_arr, (len(selected), 3)))
    if not gids:
        return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
    return np.concatenate(gids), np.concatenate(shifts)


@st.composite
def _decompositions(draw):
    """Non-cubic boxes under any periodicity mask, split 1/2/4/8 ways
    (optionally with the chute's quasi-2D slab rule), holding atoms in
    the bulk, exactly on subdomain faces, on both box faces and exactly
    on the halo shell's outer faces."""
    lengths = np.array([draw(st.floats(3.0, 12.0)) for _ in range(3)])
    origin = np.array([draw(st.floats(-4.0, 4.0)) for _ in range(3)])
    periodic = np.array(draw(st.tuples(*[st.booleans()] * 3)))
    grid = proc_grid(
        draw(st.sampled_from([1, 2, 4, 8])), lengths, quasi_2d=draw(st.booleans())
    )
    width = draw(st.floats(0.3, 1.4))
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    positions = origin + rng.uniform(0.0, 1.0, (n, 3)) * lengths
    # The exact values select_ghosts compares against (and the
    # coordinates whose +-L image lands on them), per worker and dim.
    faces = np.concatenate(
        [
            np.stack(
                [lo, hi, lo - width, hi + width,
                 lo - width + lengths, hi + width - lengths]
            )
            for lo, hi in (
                domain_bounds(worker, origin, lengths, grid)
                for worker in range(int(np.prod(grid)))
            )
        ]
    )
    picks = faces[rng.integers(len(faces), size=(n, 3)), np.arange(3)]
    snap = rng.random((n, 3))
    positions = np.where(snap < 0.3, picks, positions)
    positions = np.where(snap > 0.97, origin + lengths, positions)
    positions = np.where((snap > 0.94) & (snap <= 0.97), origin, positions)
    positions = np.clip(positions, origin, origin + lengths)
    return positions, origin, lengths, periodic, grid, width


class TestSelectGhostsMatchesImageScan:
    @given(config=_decompositions())
    @settings(max_examples=200, deadline=None)
    def test_same_ids_and_shifts_in_the_same_order(self, config):
        positions, origin, lengths, periodic, grid, width = config
        owners = assign_owners(positions, origin, lengths, grid)
        for worker in range(int(np.prod(grid))):
            lo, hi = domain_bounds(worker, origin, lengths, grid)
            args = (positions, owners, worker, lo, hi, width, lengths, periodic)
            for got, expected in zip(
                select_ghosts(*args), _select_ghosts_by_image_scan(*args)
            ):
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


class TestLocalIndex:
    def test_halo_covers_cutoff_sphere_of_owned_atoms(self, box, positions):
        """Every within-cutoff partner of an owned atom is local.

        The minimum-image displacement to the partner's ghost image must
        match the global minimum-image displacement — this is the
        invariant the per-domain pair search relies on.
        """
        cutoff = 1.2
        grid = proc_grid(4, box.lengths)
        n_workers = int(np.prod(grid))
        owners = assign_owners(positions, box.origin, box.lengths, grid)
        iu, ju = brute_force_pairs(positions, box, cutoff)
        for worker in range(n_workers):
            index = LocalIndex.build(
                positions,
                box.origin,
                box.lengths,
                box.periodic,
                grid,
                worker,
                cutoff,
            )
            local = index.local_positions(positions, box.lengths)
            images: dict[int, list[int]] = {}
            for k, g in enumerate(index.gids):
                images.setdefault(int(g), []).append(k)
            for a, b in zip(iu, ju):
                for i, j in ((a, b), (b, a)):
                    if owners[i] != worker:
                        continue
                    assert j in images, f"partner {j} missing on {worker}"
                    # atom i is owned, so its sole unshifted copy is the
                    # first n_owned entries; some image of j must sit at
                    # the global minimum-image displacement from it
                    (ki,) = [k for k in images[i] if k < index.n_owned]
                    d_global = box.minimum_image(positions[i] - positions[j])
                    deltas = local[ki] - local[images[j]]
                    assert np.any(
                        np.all(np.abs(deltas - d_global) < 1e-12, axis=1)
                    ), f"no image of {j} within cutoff of owned {i}"

    def test_owned_prefix_ordering(self, box, positions):
        grid = proc_grid(2, box.lengths)
        index = LocalIndex.build(
            positions, box.origin, box.lengths, box.periodic, grid, 0, 1.0
        )
        assert index.n_local == len(index.gids)
        assert not index.shifts[: index.n_owned].any()
        owned_gids = index.gids[: index.n_owned]
        assert np.all(np.diff(owned_gids) > 0)


class TestSubdomainDirectedPairs:
    def _cluster(self, rng, n=120):
        return rng.uniform(0.0, 4.0, size=(n, 3))

    def test_matches_brute_oracle_both_paths(self, rng):
        positions = self._cluster(rng)
        open_box = Box(
            [10.0, 10.0, 10.0], periodic=[False, False, False], origin=[-3.0] * 3
        )
        iu, ju = brute_force_pairs(positions, open_box, 1.0)
        expected = sorted(
            [(int(a), int(b)) for a, b in zip(iu, ju)]
            + [(int(b), int(a)) for a, b in zip(iu, ju)]
        )
        for limit in (0, 10**9):  # cell-list path, brute path
            di, dj, _ = subdomain_directed_pairs(
                positions, 1.0, brute_force_max=limit
            )
            assert sorted(zip(di.tolist(), dj.tolist())) == expected

    def test_sorted_by_anchor_then_key(self, rng):
        positions = self._cluster(rng)
        key = rng.permutation(len(positions)).astype(np.int64)
        di, dj, _ = subdomain_directed_pairs(positions, 1.0, sort_key=key)
        assert np.all(np.diff(di) >= 0)
        same_anchor = np.diff(di) == 0
        assert np.all(np.diff(key[dj])[same_anchor] > 0)

    def test_anchor_limit_is_prefix_of_unrestricted(self, rng):
        positions = self._cluster(rng)
        limit = 40
        di_all, dj_all, _ = subdomain_directed_pairs(positions, 1.0)
        di_cut, dj_cut, _ = subdomain_directed_pairs(
            positions, 1.0, anchor_limit=limit
        )
        keep = di_all < limit
        np.testing.assert_array_equal(di_cut, di_all[keep])
        np.testing.assert_array_equal(dj_cut, dj_all[keep])
        assert np.all(di_cut < limit)
