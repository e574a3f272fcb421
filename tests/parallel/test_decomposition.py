"""Tests for the spatial domain decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cpu import SubdomainGeometry
from repro.parallel.decomposition import proc_grid


class TestProcGrid:
    @given(n=st.integers(1, 128))
    @settings(max_examples=50, deadline=None)
    def test_grid_product_equals_ranks(self, n):
        box = np.array([50.0, 50.0, 50.0])
        grid = proc_grid(n, box)
        assert int(np.prod(grid)) == n

    def test_cube_gets_balanced_grid(self):
        assert sorted(proc_grid(64, np.array([50.0, 50.0, 50.0]))) == [4, 4, 4]

    def test_eight_ranks_cube(self):
        assert sorted(proc_grid(8, np.array([50.0, 50.0, 50.0]))) == [2, 2, 2]

    def test_elongated_box_split_along_long_axis(self):
        grid = proc_grid(4, np.array([100.0, 10.0, 10.0]))
        assert grid == (4, 1, 1)

    def test_quasi_2d_never_splits_z(self):
        for n in (2, 4, 8, 16, 64):
            grid = proc_grid(n, np.array([100.0, 100.0, 16.0]), quasi_2d=True)
            assert grid[2] == 1
            assert int(np.prod(grid)) == n

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            proc_grid(0, np.array([1.0, 1.0, 1.0]))

    def test_minimizes_surface_over_alternatives(self):
        """16 ranks on a cube: (4,2,2) beats (16,1,1)."""
        box = np.array([40.0, 40.0, 40.0])
        grid = proc_grid(16, box)
        assert sorted(grid) == [2, 2, 4]


class TestSubdomainGeometry:
    def _geometry(self, n_ranks, quasi_2d=False):
        box = np.array([67.2, 67.2, 67.2]) if not quasi_2d else np.array([176.0, 176.0, 16.0])
        return SubdomainGeometry.build(
            n_ranks, box, ghost_cutoff=2.8, number_density=0.8442, quasi_2d=quasi_2d
        )

    def test_local_atoms_partition_total(self):
        geo = self._geometry(8)
        total = 0.8442 * 67.2**3
        assert geo.local_atoms * 8 == pytest.approx(total)

    def test_serial_run_has_no_ghosts(self):
        geo = self._geometry(1)
        assert geo.ghost_atoms == 0.0
        assert geo.exchange_messages == 0

    def test_ghost_atoms_positive_when_split(self):
        geo = self._geometry(8)
        assert geo.ghost_atoms > 0

    def test_more_ranks_more_surface_per_rank(self):
        """Fixed N: ghost/local ratio grows with the rank count — the
        paper's explanation for small systems not scaling."""
        ratio_8 = self._geometry(8).ghost_atoms / self._geometry(8).local_atoms
        ratio_64 = self._geometry(64).ghost_atoms / self._geometry(64).local_atoms
        assert ratio_64 > ratio_8

    def test_exchange_messages_two_per_split_dim(self):
        assert self._geometry(8).exchange_messages == 6  # 2x2x2
        assert self._geometry(2).exchange_messages == 2

    def test_exchange_bytes_scale_with_payload(self):
        geo = self._geometry(8)
        assert geo.exchange_bytes(48.0) == pytest.approx(2 * geo.exchange_bytes(24.0))

    def test_quasi_2d_ghosts_only_in_plane(self):
        geo = self._geometry(4, quasi_2d=True)
        # z unsplit: the shell exists along x and y only.
        inner = geo.sub_lengths
        expected_shell = (
            (inner[0] + 5.6) * (inner[1] + 5.6) * inner[2] - np.prod(inner)
        ) * 0.8442
        assert geo.ghost_atoms == pytest.approx(expected_shell)
