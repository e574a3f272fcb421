"""Tests for the cell-list-backed Verlet neighbor list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import (
    MAX_CELLS,
    NeighborList,
    brute_force_pairs,
    cell_list_half_pairs,
    subdomain_directed_pairs,
)
from tests.conftest import huge_grid_case


def _pair_set(i, j):
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


class TestBruteForce:
    def test_two_atoms_within_cutoff(self):
        box = Box([10, 10, 10])
        i, j = brute_force_pairs(np.array([[1.0, 1, 1], [2.0, 1, 1]]), box, 1.5)
        assert _pair_set(i, j) == {(0, 1)}

    def test_pair_across_boundary(self):
        box = Box([10, 10, 10])
        i, j = brute_force_pairs(np.array([[0.2, 5, 5], [9.8, 5, 5]]), box, 1.0)
        assert _pair_set(i, j) == {(0, 1)}

    def test_outside_cutoff_excluded(self):
        box = Box([10, 10, 10])
        i, j = brute_force_pairs(np.array([[1.0, 1, 1], [5.0, 1, 1]]), box, 1.5)
        assert len(i) == 0


class TestCellListEquivalence:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(900, 1500))
    @settings(max_examples=8, deadline=None)
    def test_matches_brute_force_random_configs(self, seed, n):
        """Property: binned build finds exactly the brute-force pairs."""
        rng = np.random.default_rng(seed)
        box = Box([12.0, 15.0, 18.0])
        positions = rng.uniform(0, 1, size=(n, 3)) * box.lengths
        system = AtomSystem(positions, box)
        nlist = NeighborList(1.5, 0.3)
        nlist.build(system)  # n > brute-force threshold -> cell list
        bi, bj = brute_force_pairs(system.positions, box, 1.8)
        assert _pair_set(nlist.pair_i, nlist.pair_j) == _pair_set(bi, bj)

    def test_matches_brute_force_non_periodic_dim(self):
        rng = np.random.default_rng(5)
        box = Box([12.0, 12.0, 20.0], periodic=[True, True, False])
        positions = rng.uniform(0, 1, size=(1200, 3)) * box.lengths
        system = AtomSystem(positions, box)
        nlist = NeighborList(1.5, 0.3)
        nlist.build(system)
        bi, bj = brute_force_pairs(system.positions, box, 1.8)
        assert _pair_set(nlist.pair_i, nlist.pair_j) == _pair_set(bi, bj)


class TestGuards:
    def test_cutoff_exceeding_half_box_rejected(self):
        box = Box([6.0, 6.0, 6.0])
        system = AtomSystem(np.zeros((2, 3)) + 1, box)
        nlist = NeighborList(3.0, 0.5)
        with pytest.raises(ValueError, match="half the smallest periodic box"):
            nlist.build(system)

    def test_non_periodic_dims_exempt_from_guard(self):
        box = Box([20.0, 20.0, 4.0], periodic=[True, True, False])
        system = AtomSystem(np.ones((4, 3)), box)
        NeighborList(3.0, 0.5).build(system)  # z is non-periodic: OK

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NeighborList(0.0, 0.1)
        with pytest.raises(ValueError):
            NeighborList(1.0, -0.1)

    def test_query_before_build_raises(self):
        box = Box([10, 10, 10])
        system = AtomSystem(np.ones((2, 3)), box)
        with pytest.raises(RuntimeError):
            NeighborList(1.0, 0.1).current_pairs(system)

    def test_grid_too_large_to_index_is_refused_by_name(self):
        """2^61 cells used to reach ``np.bincount`` as a MemoryError,
        2^64 wrap the int64 product to 0, which then sized the cell
        tables.  The build must say what is wrong before it allocates
        anything, whichever entry point reaches the cell list."""
        for scale, cells in ((1, 2**61), (2, 2**64)):
            positions, box, rc = huge_grid_case(scale)
            with pytest.raises(ValueError, match=f"link-cell grid .* {cells} cells"):
                cell_list_half_pairs(positions, box, rc)
        positions, box, rc = huge_grid_case()
        with pytest.raises(ValueError, match="link-cell grid"):
            subdomain_directed_pairs(positions, rc, brute_force_max=0)
        system = AtomSystem(positions, box)
        with pytest.raises(ValueError, match="link-cell grid"):
            NeighborList(rc, 0.0, brute_force_max=0).build(system)
        assert f"more than the {MAX_CELLS}" in str(
            pytest.raises(ValueError, cell_list_half_pairs, positions, box, rc).value
        )
        # A sparse box well inside the bound is not refused.
        sparse = Box([60.0] * 3, periodic=(False,) * 3)
        i, j = cell_list_half_pairs(positions[:50] * 0.01, sparse, 1.0)
        assert len(i) == 50 * 49 // 2


class TestSkinLogic:
    def _system(self):
        rng = np.random.default_rng(7)
        box = Box([10, 10, 10])
        return AtomSystem(rng.uniform(0, 10, (64, 3)), box)

    def test_small_motion_no_rebuild(self):
        system = self._system()
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        system.positions += 0.05  # well under skin/2
        assert not nlist.needs_rebuild(system)

    def test_large_motion_triggers_rebuild(self):
        system = self._system()
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        system.positions[0] += 0.5
        assert nlist.needs_rebuild(system)

    def test_box_change_triggers_rebuild(self):
        system = self._system()
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        system.box.scale(1.01)
        assert nlist.needs_rebuild(system)

    def test_ensure_counts_builds(self):
        system = self._system()
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        for _ in range(5):
            nlist.ensure(system)
        assert nlist.stats.n_builds == 1  # static system never rebuilds
        system.positions[0] += 1.0
        assert nlist.ensure(system)
        assert nlist.stats.n_builds == 2

    def test_current_pairs_filters_to_cutoff(self):
        box = Box([10, 10, 10])
        system = AtomSystem(np.array([[1.0, 1, 1], [2.9, 1, 1]]), box)
        nlist = NeighborList(2.0, 0.5)  # pair stored (r=1.9 < 2.5)
        nlist.build(system)
        system.positions[1, 0] = 3.2  # drift out of cutoff, still listed
        i, j, dr, r = nlist.current_pairs(system)
        assert len(i) == 0
        i, j, dr, r = nlist.current_pairs(system, cutoff=2.5)
        assert len(i) == 1
        assert r[0] == pytest.approx(2.2)


class TestVariants:
    def test_full_list_doubles_pairs(self):
        rng = np.random.default_rng(8)
        box = Box([10, 10, 10])
        system = AtomSystem(rng.uniform(0, 10, (40, 3)), box)
        half = NeighborList(2.0, 0.2)
        full = NeighborList(2.0, 0.2, full=True)
        half.build(system)
        full.build(system)
        assert len(full.pair_i) == 2 * len(half.pair_i)
        # Every (i, j) appears with its mirror (j, i).
        pairs = set(zip(full.pair_i.tolist(), full.pair_j.tolist()))
        assert all((j, i) in pairs for i, j in pairs)

    def test_exclusions_removed(self):
        box = Box([10, 10, 10])
        positions = np.array([[1.0, 1, 1], [1.8, 1, 1], [2.6, 1, 1]])
        system = AtomSystem(positions, box)
        nlist = NeighborList(2.0, 0.2, exclusions=np.array([[0, 1]]))
        nlist.build(system)
        assert (0, 1) not in _pair_set(nlist.pair_i, nlist.pair_j)
        assert (1, 2) in _pair_set(nlist.pair_i, nlist.pair_j)

    def test_neighbors_per_atom_statistic(self):
        # Two atoms within cutoff: each sees one neighbor.
        box = Box([10, 10, 10])
        system = AtomSystem(np.array([[1.0, 1, 1], [2.0, 1, 1]]), box)
        nlist = NeighborList(1.5, 0.3)
        nlist.build(system)
        assert nlist.stats.last_neighbors_per_atom == pytest.approx(1.0)

    def test_rebuild_cadence_statistic(self):
        rng = np.random.default_rng(9)
        box = Box([10, 10, 10])
        system = AtomSystem(rng.uniform(0, 10, (30, 3)), box)
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        for _ in range(10):
            nlist.ensure(system)
        assert nlist.stats.rebuild_every == pytest.approx(10.0)


class TestBruteForceOverride:
    """`brute_force_max` selects the build path explicitly."""

    def _system(self, n=120, seed=4):
        rng = np.random.default_rng(seed)
        box = Box([12.0, 12.0, 12.0])
        return AtomSystem(rng.uniform(0, 12, (n, 3)), box)

    def test_both_paths_agree_on_small_system(self):
        system = self._system()
        cell = NeighborList(1.5, 0.3, brute_force_max=0)  # force cell list
        brute = NeighborList(1.5, 0.3, brute_force_max=10**9)
        cell.build(system)
        brute.build(system)
        assert _pair_set(cell.pair_i, cell.pair_j) == _pair_set(
            brute.pair_i, brute.pair_j
        )

    def test_default_crossover(self):
        assert NeighborList(1.5, 0.3).brute_force_max == 800

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="brute_force_max"):
            NeighborList(1.5, 0.3, brute_force_max=-1)


class TestExclusionFiltering:
    """The searchsorted-based exclusion mask (regression vs np.isin)."""

    def test_bonded_12_13_pairs_masked_identically(self):
        # A 4-bead chain with 1-2 and 1-3 exclusions, everything in range.
        box = Box([20.0, 20.0, 20.0])
        positions = np.array(
            [[5.0, 5, 5], [6.0, 5, 5], [7.0, 5, 5], [8.0, 5, 5]]
        )
        system = AtomSystem(positions, box)
        exclusions = np.array([[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]])
        nlist = NeighborList(3.4, 0.2, exclusions=exclusions)
        nlist.build(system)
        kept = _pair_set(nlist.pair_i, nlist.pair_j)
        assert kept == {(0, 3)}  # only the 1-4 pair survives

    def test_matches_isin_oracle_on_random_lists(self):
        rng = np.random.default_rng(100)
        box = Box([14.0, 14.0, 14.0])
        n = 300
        system = AtomSystem(rng.uniform(0, 14, (n, 3)), box)
        raw = NeighborList(2.0, 0.3)
        raw.build(system)
        all_pairs = np.column_stack([raw.pair_i, raw.pair_j])
        # Exclude a random subset of real pairs plus some absent ones.
        excl = np.vstack(
            [
                all_pairs[rng.choice(len(all_pairs), 40, replace=False)],
                rng.integers(0, n, (20, 2)),
            ]
        )
        nlist = NeighborList(2.0, 0.3, exclusions=excl)
        nlist.build(system)
        # np.isin oracle over encoded unordered keys.
        def encode(i, j):
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            return lo * np.int64(n) + hi

        keep = ~np.isin(
            encode(raw.pair_i, raw.pair_j),
            np.unique(encode(excl[:, 0], excl[:, 1])),
        )
        expected = _pair_set(raw.pair_i[keep], raw.pair_j[keep])
        assert _pair_set(nlist.pair_i, nlist.pair_j) == expected


class TestCSRLayout:
    """The packed (offsets, neighbors) view published by every build."""

    def _built(self, full=False, n=150, seed=6):
        rng = np.random.default_rng(seed)
        box = Box([10.0, 10.0, 10.0])
        system = AtomSystem(rng.uniform(0, 10, (n, 3)), box)
        nlist = NeighborList(2.0, 0.3, full=full)
        nlist.build(system)
        return nlist, system

    @pytest.mark.parametrize("full", [False, True])
    def test_csr_consistent_with_flat_pairs(self, full):
        nlist, system = self._built(full=full)
        n = system.n_atoms
        offsets, neighbors = nlist.csr_offsets, nlist.csr_neighbors
        assert len(offsets) == n + 1
        assert offsets[0] == 0
        assert offsets[-1] == len(nlist.pair_i)
        assert np.all(np.diff(offsets) >= 0)
        # pair_i must be in CSR row-major order with sorted rows.
        assert np.all(np.diff(nlist.pair_i) >= 0)
        rebuilt_i = np.repeat(np.arange(n), np.diff(offsets))
        assert np.array_equal(rebuilt_i, nlist.pair_i)
        assert np.array_equal(neighbors, nlist.pair_j)
        for atom in range(n):
            row = nlist.neighbors_of(atom)
            assert np.all(np.diff(row) >= 0)

    @pytest.mark.parametrize("with_exclusions", [False, True])
    def test_brute_force_build_packs_what_a_sort_would(self, with_exclusions):
        """The brute-force producer is already row-major, so the build
        skips its sort there; the packed arrays must be exactly what
        lexsort-then-bincount gives."""
        rng = np.random.default_rng(6)
        box = Box([10.0, 10.0, 10.0])
        system = AtomSystem(rng.uniform(0, 10, (150, 3)), box)
        i, j = brute_force_pairs(box.wrap(system.positions), box, 2.3)
        exclusions = None
        if with_exclusions:
            drop = rng.choice(len(i), 60, replace=False)
            exclusions = np.column_stack([j[drop], i[drop]])  # either order
            keep = np.ones(len(i), dtype=bool)
            keep[drop] = False
            i, j = i[keep], j[keep]
        order = np.lexsort((j, i))
        nlist = NeighborList(2.0, 0.3, exclusions=exclusions)
        nlist.build(system)  # 150 atoms: brute-force path
        assert np.array_equal(nlist.pair_i, i[order])
        assert np.array_equal(nlist.pair_j, j[order])
        offsets = np.zeros(151, dtype=np.int64)
        np.cumsum(np.bincount(i, minlength=150), out=offsets[1:])
        assert np.array_equal(nlist.csr_offsets, offsets)

    def test_full_rows_mirror(self):
        nlist, system = self._built(full=True)
        pairs = set(zip(nlist.pair_i.tolist(), nlist.pair_j.tolist()))
        for a, b in pairs:
            assert (b, a) in pairs
        # Each atom's CSR row holds every partner it appears with.
        for atom in range(system.n_atoms):
            partners = {b for a, b in pairs if a == atom}
            assert set(nlist.neighbors_of(atom).tolist()) == partners


class TestRandomizedCellListCrossCheck:
    """Randomized oracle sweep: cell-list pairs == brute-force pairs
    over random boxes, densities and skins (satellite of the kernel-
    backend PR; includes the Chute-style ``full=True`` case)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_boxes_densities_skins(self, seed):
        rng = np.random.default_rng(2_022_000 + seed)
        lengths = rng.uniform(8.0, 16.0, size=3)
        box = Box(lengths)
        density = rng.uniform(0.2, 0.9)
        # Cap n so the O(N^2) brute-force oracle stays cheap.
        n = min(1500, max(50, int(density * box.volume)))
        positions = rng.uniform(0, 1, (n, 3)) * lengths
        system = AtomSystem(positions, box)
        cutoff = rng.uniform(1.0, 1.8)
        skin = rng.uniform(0.05, 0.5)
        full = bool(seed % 2)  # alternate half/full flavours
        nlist = NeighborList(cutoff, skin, full=full, brute_force_max=0)
        nlist.build(system)
        bi, bj = brute_force_pairs(
            box.wrap(system.positions), box, cutoff + skin
        )
        assert _pair_set(nlist.pair_i, nlist.pair_j) == _pair_set(bi, bj)
        if full:
            assert len(nlist.pair_i) == 2 * len(bi)

    def test_chute_like_full_list(self):
        rng = np.random.default_rng(321)
        box = Box([11.0, 11.0, 18.0], periodic=[True, True, False])
        positions = rng.uniform(0, 1, (900, 3)) * box.lengths
        system = AtomSystem(positions, box, radii=np.full(900, 0.5))
        nlist = NeighborList(1.0, 0.1, full=True, brute_force_max=0)
        nlist.build(system)
        bi, bj = brute_force_pairs(box.wrap(system.positions), box, 1.1)
        assert _pair_set(nlist.pair_i, nlist.pair_j) == _pair_set(bi, bj)
        assert len(nlist.pair_i) == 2 * len(bi)
