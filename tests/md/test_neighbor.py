"""Tests for the cell-list-backed Verlet neighbor list."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.md import neighbor
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import CompiledBackend, NumpyFastBackend
from repro.md.kernels.compiled import _SMOKE_CASES, _built_twice, compiled_available
from repro.md.lattice import build_exclusions
from repro.md.neighbor import (
    MAX_CELLS,
    NeighborList,
    brute_force_pairs,
    cell_list_half_pairs,
    subdomain_directed_pairs,
)
from repro.suite import get_benchmark
from tests.conftest import brute_force_up_to, huge_grid_case


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
        assert _pair_set(nlist.pair_i, nlist.csr_neighbors) == _pair_set(bi, bj)

    def test_matches_brute_force_non_periodic_dim(self):
        rng = np.random.default_rng(5)
        box = Box([12.0, 12.0, 20.0], periodic=[True, True, False])
        positions = rng.uniform(0, 1, size=(1200, 3)) * box.lengths
        system = AtomSystem(positions, box)
        nlist = NeighborList(1.5, 0.3)
        nlist.build(system)
        bi, bj = brute_force_pairs(system.positions, box, 1.8)
        assert _pair_set(nlist.pair_i, nlist.csr_neighbors) == _pair_set(bi, bj)


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

    def test_grid_too_large_to_index_is_refused_by_name(self, cell_lists):
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
            subdomain_directed_pairs(positions, rc)
        system = AtomSystem(positions, box)
        with pytest.raises(ValueError, match="link-cell grid"):
            NeighborList(rc, 0.0).build(system)
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

    @pytest.mark.parametrize("move, rebuild", [(0.149, False), (0.151, True)])
    def test_box_change_is_charged_against_the_skin(self, move, rebuild):
        """``|dL| = 0.1`` leaves ``(0.4 - 0.1) / 2 = 0.15`` of the skin
        to each atom: one move either side of ``2 max_disp + |dL| =
        skin``.  The box grows, so no other atom's wrapped position
        changes."""
        system = self._system()
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        system.box.lengths = system.box.lengths + [0.06, 0.0, 0.08]
        system.positions[5, 1] += move
        assert nlist.needs_rebuild(system) is rebuild

    @pytest.mark.parametrize(
        "change", [[0.5, 0.0, 0.0], [0.4, -0.4, 0.0], [0.5, 0.5, -0.5]]
    )
    def test_box_change_of_a_whole_skin_always_rebuilds(self, change):
        """At ``|dL| >= skin`` nothing of the skin is left for the atoms,
        so even a list whose atoms have not moved is rebuilt (the first
        case is exactly ``|dL| == skin``)."""
        system = self._system()
        nlist = NeighborList(2.0, 0.5)
        nlist.build(system)
        system.box.lengths = system.box.lengths + change
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

    def test_live_pairs_equal_a_fresh_build_while_the_barostat_compresses(self):
        """Rhodopsin driven to compress at the barostat's rate cap, with
        a 1 Å skin so the box change and the motion use it up every few
        steps: at every step the stored list's pairs within the cutoff
        are exactly a fresh brute-force build's, exclusions applied."""
        sim = get_benchmark("rhodo").build(300)
        sim.set_backend("numpy_fast")
        sim.neighbor.skin = 1.0
        sim.integrator.pressure = 1e4
        system, nlist = sim.system, sim.neighbor
        excluded = _pair_set(*build_exclusions(system.topology).T)
        lengths = system.box.lengths.copy()
        reused = 0
        for _ in range(30):
            sim.step()
            reused += nlist.stats.steps_since_build > 0
            box = system.box
            live_i, live_j, _, _ = nlist.current_pairs(system)
            fresh_i, fresh_j = brute_force_pairs(
                box.wrap(system.positions), box, nlist.cutoff
            )
            assert _pair_set(live_i, live_j) == _pair_set(fresh_i, fresh_j) - excluded
        assert np.all(system.box.lengths < lengths - 0.5)
        # Both sides of the rule were taken.
        assert reused >= 10 and nlist.stats.n_builds >= 4

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
        pairs = set(zip(full.pair_i.tolist(), full.csr_neighbors.tolist()))
        assert all((j, i) in pairs for i, j in pairs)

    def test_exclusions_removed(self):
        box = Box([10, 10, 10])
        positions = np.array([[1.0, 1, 1], [1.8, 1, 1], [2.6, 1, 1]])
        system = AtomSystem(positions, box)
        nlist = NeighborList(2.0, 0.2, exclusions=np.array([[0, 1]]))
        nlist.build(system)
        assert (0, 1) not in _pair_set(nlist.pair_i, nlist.csr_neighbors)
        assert (1, 2) in _pair_set(nlist.pair_i, nlist.csr_neighbors)

    def test_neighbors_per_atom_statistic(self):
        # Two atoms within cutoff: each sees one neighbor.
        box = Box([10, 10, 10])
        system = AtomSystem(np.array([[1.0, 1, 1], [2.0, 1, 1]]), box)
        nlist = NeighborList(1.5, 0.3)
        with pytest.raises(RuntimeError, match="never been built"):
            nlist.neighbors_per_atom()
        nlist.build(system)
        assert nlist.neighbors_per_atom() == 1.0

    def test_rebuild_cadence_statistic(self):
        rng = np.random.default_rng(9)
        box = Box([10, 10, 10])
        system = AtomSystem(rng.uniform(0, 10, (30, 3)), box)
        nlist = NeighborList(2.0, 0.4)
        nlist.build(system)
        for _ in range(10):
            nlist.ensure(system)
        assert nlist.stats.rebuild_every == pytest.approx(10.0)


class TestNeighborsPerAtom:
    """The statistic is 2 |pairs within the force cutoff at the build
    positions, minus exclusions| / N, whichever producer measures it."""

    @pytest.mark.parametrize("backend", ["numpy_fast", "compiled"])
    @pytest.mark.parametrize("name, n_atoms", [("rhodo", 1000), ("chute", 1800)])
    def test_equals_the_brute_force_oracle(self, name, n_atoms, backend):
        if backend == "compiled" and not compiled_available():
            pytest.skip("no compiled provider on this machine")
        sim = get_benchmark(name).build(n_atoms)
        sim.set_backend(backend)
        sim.run(3)
        nlist = sim.neighbor
        positions, lengths = nlist.export_build_state()
        box = Box(lengths, sim.system.box.periodic, sim.system.box.origin)
        pairs = _pair_set(*brute_force_pairs(positions, box, nlist.cutoff))
        excluded = _pair_set(*build_exclusions(sim.system.topology).T)
        assert (name == "rhodo") == bool(pairs & excluded)
        expected = 2 * len(pairs - excluded) / sim.system.n_atoms
        assert nlist.neighbors_per_atom() == expected > 1.0


class TestBruteForceOverride:
    """`BRUTE_FORCE_MAX_ATOMS` selects the build path."""

    def _system(self, n=120, seed=4):
        rng = np.random.default_rng(seed)
        box = Box([12.0, 12.0, 12.0])
        return AtomSystem(rng.uniform(0, 12, (n, 3)), box)

    def test_both_paths_agree_on_small_system(self):
        system = self._system()
        cell = NeighborList(1.5, 0.3)
        brute = NeighborList(1.5, 0.3)
        with brute_force_up_to(0):
            cell.build(system)
        with brute_force_up_to(10**9):
            brute.build(system)
        assert _pair_set(cell.pair_i, cell.csr_neighbors) == _pair_set(
            brute.pair_i, brute.csr_neighbors
        )

    def test_default_crossover(self):
        assert neighbor.BRUTE_FORCE_MAX_ATOMS == 800


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
        kept = _pair_set(nlist.pair_i, nlist.csr_neighbors)
        assert kept == {(0, 3)}  # only the 1-4 pair survives

    def test_matches_isin_oracle_on_random_lists(self):
        rng = np.random.default_rng(100)
        box = Box([14.0, 14.0, 14.0])
        n = 300
        system = AtomSystem(rng.uniform(0, 14, (n, 3)), box)
        raw = NeighborList(2.0, 0.3)
        raw.build(system)
        all_pairs = np.column_stack([raw.pair_i, raw.csr_neighbors])
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
            encode(raw.pair_i, raw.csr_neighbors),
            np.unique(encode(excl[:, 0], excl[:, 1])),
        )
        expected = _pair_set(raw.pair_i[keep], raw.csr_neighbors[keep])
        assert _pair_set(nlist.pair_i, nlist.csr_neighbors) == expected


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
        offsets = nlist.csr_offsets
        assert len(offsets) == n + 1
        assert offsets[0] == 0
        assert offsets[-1] == len(nlist.csr_neighbors) == len(nlist.pair_i)
        assert np.all(np.diff(offsets) >= 0)
        # pair_i is the rows' heads: row-major, one per stored partner.
        rebuilt_i = np.repeat(np.arange(n), np.diff(offsets))
        assert np.array_equal(rebuilt_i, nlist.pair_i)
        for atom in range(n):
            row = nlist.csr_neighbors[offsets[atom] : offsets[atom + 1]]
            assert np.all(np.diff(row) >= 0)

    def test_pair_i_is_derived_on_read_and_dropped_by_the_next_build(self):
        """A build stores no per-pair heads: ``pair_i`` is expanded from
        the offsets on its first read, read-only, kept while the rows
        stand and dropped by the next build."""
        nlist, system = self._built()
        assert nlist._heads is None
        heads = nlist.pair_i
        assert nlist.pair_i is heads and not heads.flags.writeable
        with pytest.raises(AttributeError):
            nlist.pair_i = heads
        nlist.build(system)
        assert nlist._heads is None
        assert nlist.pair_i is not heads
        assert np.array_equal(nlist.pair_i, heads)

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
        assert np.array_equal(nlist.csr_neighbors, j[order])
        offsets = np.zeros(151, dtype=np.int64)
        np.cumsum(np.bincount(i, minlength=150), out=offsets[1:])
        assert np.array_equal(nlist.csr_offsets, offsets)

    def test_full_rows_mirror(self):
        nlist, system = self._built(full=True)
        pairs = set(zip(nlist.pair_i.tolist(), nlist.csr_neighbors.tolist()))
        for a, b in pairs:
            assert (b, a) in pairs
        # Each atom's CSR row holds every partner it appears with.
        for atom in range(system.n_atoms):
            partners = {b for a, b in pairs if a == atom}
            row = slice(*nlist.csr_offsets[atom : atom + 2])
            assert set(nlist.csr_neighbors[row].tolist()) == partners


class TestRandomizedCellListCrossCheck:
    """Randomized oracle sweep: cell-list pairs == brute-force pairs
    over random boxes, densities and skins (satellite of the kernel-
    backend PR; includes the Chute-style ``full=True`` case)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_boxes_densities_skins(self, seed, cell_lists):
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
        nlist = NeighborList(cutoff, skin, full=full)
        nlist.build(system)
        bi, bj = brute_force_pairs(
            box.wrap(system.positions), box, cutoff + skin
        )
        assert _pair_set(nlist.pair_i, nlist.csr_neighbors) == _pair_set(bi, bj)
        if full:
            assert len(nlist.pair_i) == 2 * len(bi)

    def test_chute_like_full_list(self, cell_lists):
        rng = np.random.default_rng(321)
        box = Box([11.0, 11.0, 18.0], periodic=[True, True, False])
        positions = rng.uniform(0, 1, (900, 3)) * box.lengths
        system = AtomSystem(positions, box, radii=np.full(900, 0.5))
        nlist = NeighborList(1.0, 0.1, full=True)
        nlist.build(system)
        bi, bj = brute_force_pairs(box.wrap(system.positions), box, 1.1)
        assert _pair_set(nlist.pair_i, nlist.csr_neighbors) == _pair_set(bi, bj)
        assert len(nlist.pair_i) == 2 * len(bi)


class _AnsweringCompiled(CompiledBackend):
    """The compiled backend, noting what its half-pair hook was asked
    (``brute`` or not) and whether it answered, and whether its
    directed-row hook answered."""

    def __init__(self):
        super().__init__()
        self.answered, self.directed = [], []

    def neighbor_pairs(self, positions, box, rc, *, brute=False):
        rows = super().neighbor_pairs(positions, box, rc, brute=brute)
        self.answered.append((brute, rows is not None))
        return rows

    def directed_rows(self, *args):
        rows = super().directed_rows(*args)
        self.directed.append(rows is not None)
        return rows


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.skipif(not compiled_available(), reason="no compiled provider")
class TestNativeBuildsAreTheNumpyBuilds:
    """With the compiled backend attached, a build stores bitwise the
    list the numpy backend stores, whichever algorithm the build picks:
    all pairs (few atoms, or a box under three list cutoffs wide on a
    periodic dim — the rhodo case) or link cells, each answered by its
    native kernel.  Boxes 2 to 12 list cutoffs wide, non-cubic, under
    every periodicity mask, with atoms either side of the 800-atom
    crossover and strayed outside the box, exclusions on and off; boxes
    exactly 3 and 4 cells wide with atoms on half-cell sites; and the
    cell kernel itself against the numpy build."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 900),
        widths=st.tuples(*[st.floats(2.0, 12.0)] * 3),
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        exclusions=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_stored_list_is_bitwise_the_numpy_one(
        self, seed, n, widths, periodic, exclusions
    ):
        rng = np.random.default_rng(seed)
        cutoff, skin = 0.8, 0.2
        lengths = np.array(widths) * (cutoff + skin)
        box = Box(lengths, periodic=periodic, origin=rng.uniform(-2.0, 2.0, 3))
        positions = box.origin + rng.uniform(-0.25, 1.25, (n, 3)) * lengths
        excluded = None
        if exclusions and n >= 2:
            excluded = rng.integers(0, n, (3 * n, 2))
            excluded = excluded[excluded[:, 0] != excluded[:, 1]]
        lists = []
        for kernels in (_AnsweringCompiled(), NumpyFastBackend()):
            nlist = NeighborList(cutoff, skin, exclusions=excluded)
            nlist.kernels = kernels
            nlist.build(AtomSystem(positions, box))
            lists.append(nlist)
        native, numpy_built = lists
        brute = n <= neighbor.BRUTE_FORCE_MAX_ATOMS or not NeighborList._can_bin(
            box, cutoff + skin
        )
        assert native.kernels.answered == [(brute, True)]
        for name in ("pair_i", "csr_offsets", "csr_neighbors"):
            assert _same_bits(getattr(native, name), getattr(numpy_built, name)), name
        assert native.stats.last_pairs == numpy_built.stats.last_pairs

    @pytest.mark.parametrize("cutoff, skin", [(0.8, 0.2), (1.12, 0.3)])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("periodic", list(itertools.product((True, False), repeat=3)))
    def test_whole_cell_boxes_with_atoms_on_half_cell_sites(
        self, cutoff, skin, k, periodic, cell_lists
    ):
        """``L = k (cutoff + skin)`` exactly: k cells per dim, the
        smallest grid of each image route (3 cells compare-and-shift, 4
        the hoisted shift), and atoms on the half-cell lattice, so
        partners sit on cell faces and at the cutoff itself."""
        rc = cutoff + skin
        box = Box([k * rc] * 3, periodic=periodic, origin=(-1.3, 0.4, 2.0))
        sites = np.arange(2 * k) * (k * rc / (2 * k))
        lattice = np.stack(np.meshgrid(sites, sites, sites, indexing="ij"), axis=-1)
        positions = box.origin + lattice.reshape(-1, 3)
        lists = []
        for kernels in (_AnsweringCompiled(), NumpyFastBackend()):
            nlist = NeighborList(cutoff, skin)
            nlist.kernels = kernels
            nlist.build(AtomSystem(positions, box))
            lists.append(nlist)
        native, numpy_built = lists
        assert native.kernels.answered == [(False, True)]
        assert native.stats.last_pairs > 0
        for name in ("pair_i", "csr_offsets", "csr_neighbors"):
            assert _same_bits(getattr(native, name), getattr(numpy_built, name)), name

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 400),
        widths=st.tuples(*[st.floats(3.0, 12.0)] * 3),
        periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        stray=st.floats(0.0, 1.0),
        reach=st.sampled_from(["window", "guard"]),
        at_origin=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_cell_kernel_is_the_lexsorted_numpy_build(
        self, seed, n, widths, periodic, stray, reach, at_origin
    ):
        """``cell_csr`` itself against lexsorted ``cell_list_half_pairs``,
        rows and offsets, with a buffer too small and then one large
        enough (the true count, nothing written past the end).  A share
        ``stray`` of the coordinates lies outside the box: anywhere in
        the ``[-L/4, 5L/4]`` window the kernel accepts on periodic dims
        (which the hoisted image shift's rc/4 guard must turn away) or
        within rc/4 of a face (which it must take); a few lie one ulp
        below the box or on its top face."""
        rng = np.random.default_rng(seed)
        rc = 1.3
        lengths = np.array(widths) * rc
        n_cells = np.floor(lengths / rc)
        assume(np.all(n_cells[list(periodic)] >= 3))
        origin = np.zeros(3) if at_origin else rng.uniform(-2.0, 2.0, 3)
        box = Box(lengths, periodic=periodic, origin=origin)
        frac = rng.uniform(0.0, 1.0, (n, 3))
        strayed = rng.random((n, 3)) < stray
        margin = 0.25 * (lengths if reach == "window" else np.full(3, rc))
        lo, hi = -margin / lengths, 1.0 + margin / lengths
        frac[strayed] = rng.uniform(lo, hi, (n, 3))[strayed]
        positions = origin + frac * lengths
        for d in range(3):
            edge = rng.integers(0, n, 2)
            positions[edge, d] = origin[d] - np.spacing(lengths[d]), origin[d] + lengths[d]
        rel = positions - origin
        window = (rel >= -0.25 * lengths) & (rel <= 1.25 * lengths)
        assume(np.all(window[:, list(periodic)]))
        offsets = np.full(n + 1, -1, np.int64)
        drawn = SimpleNamespace(pos=positions, box=box, rc=rc, offsets=offsets)
        cell_csr = _SMOKE_CASES["cell_csr"]
        assert _built_twice(CompiledBackend()._impl, cell_csr, drawn)

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 800),
        spread=st.floats(1.0, 6.0),
        keyed=st.booleans(),
        anchored=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_rows_below_the_crossover_are_bitwise_the_numpy_ones(
        self, seed, n, spread, keyed, anchored
    ):
        """``subdomain_directed_pairs`` at or below the crossover takes
        the directed-row kernel, as above it, and asks for no half list:
        the rows equal the mirrored and sorted numpy all-pairs ones."""
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, spread, (n, 3))
        sort_key = rng.permutation(n) if keyed else None
        anchor_limit = int(rng.integers(0, n + 1)) if anchored else None
        kernels = _AnsweringCompiled()
        got = subdomain_directed_pairs(
            positions, 1.0, sort_key=sort_key, anchor_limit=anchor_limit,
            kernels=kernels,
        )
        expected = subdomain_directed_pairs(
            positions, 1.0, sort_key=sort_key, anchor_limit=anchor_limit
        )
        assert kernels.answered == []
        assert kernels.directed == ([True] if n >= 2 else [])
        assert _same_bits(got.offsets, expected.offsets)
        assert _same_bits(got.partners, expected.partners)


class TestOnlyNumpyBodiesReadTheHeads:
    """A build stores CSR rows alone; ``pair_i`` is derived for the
    numpy bodies that read it, once per build, and never for a run whose
    every pass is native."""

    @staticmethod
    def _derivations(monkeypatch, bench, backend):
        """``(derivations, builds, sim)`` over 40 steps of ``bench``."""
        derived, expand = [], neighbor.row_heads
        monkeypatch.setattr(
            neighbor, "row_heads", lambda offsets: derived.append(1) or expand(offsets)
        )
        sim = get_benchmark(bench).build(500)
        sim.set_backend(backend)
        sim.run(40)
        return len(derived), sim.neighbor.stats.n_builds, sim

    @pytest.mark.skipif(not compiled_available(), reason="no compiled provider")
    @pytest.mark.parametrize("bench", ["lj", "eam"])
    def test_a_compiled_run_never_derives_them(self, bench, monkeypatch):
        derived, builds, sim = self._derivations(monkeypatch, bench, "compiled")
        assert sim.backend.fallback is None
        assert builds >= 1 and derived == 0 and sim.neighbor._heads is None

    def test_a_numpy_fast_run_derives_them_once_per_build(self, monkeypatch):
        derived, builds, _ = self._derivations(monkeypatch, "lj", "numpy_fast")
        assert builds > 1 and derived == builds
