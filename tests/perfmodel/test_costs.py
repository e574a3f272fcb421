"""Tests for the CPU compute-cost laws."""

from dataclasses import replace

import numpy as np
import pytest

from repro.model.costs import (
    CpuCostCoefficients,
    CpuCostModel,
    kspace_grid,
)
from repro.model.precision import Precision, precision_pair_factor
from repro.model.workloads import get_workload


@pytest.fixture
def model():
    return CpuCostModel()


class TestComplexityLaws:
    def test_pair_cost_linear_in_atoms(self, model):
        w = get_workload("lj")
        t1 = model.compute_times(w, 10_000, 1).pair
        t2 = model.compute_times(w, 20_000, 1).pair
        assert t2 == pytest.approx(2 * t1)

    def test_pair_cost_tracks_neighbor_count(self, model):
        """The paper's core observation: Pair share follows
        neighbors/atom, not the specific force field."""
        lj = model.compute_times(get_workload("lj"), 10_000, 1)
        chain = model.compute_times(get_workload("chain"), 10_000, 1)
        assert lj.pair > chain.pair  # 55 vs 5 neighbors

    def test_newton_off_doubles_pair_work(self, model):
        chute = get_workload("chute")
        t = model.compute_times(chute, 10_000, 1)
        # 7 neighbors, no Newton halving.
        expected = (
            10_000
            * 7.0
            * chute.pair_cost_factor
            * model.coefficients.pair_per_interaction
            * precision_pair_factor("chute", Precision.MIXED)
        )
        assert t.pair == pytest.approx(expected)

    def test_bond_cost_only_for_bonded_benchmarks(self, model):
        assert model.compute_times(get_workload("lj"), 10_000, 1).bond == 0.0
        assert model.compute_times(get_workload("chain"), 10_000, 1).bond > 0.0

    def test_kspace_zero_without_solver(self, model):
        assert model.compute_times(get_workload("lj"), 10_000, 1).kspace == 0.0

    def test_kspace_grows_with_tighter_threshold(self, model):
        w = get_workload("rhodo")
        loose = model.compute_times(w, 32_000, 1, kspace_error=1e-4)
        tight = model.compute_times(w, 32_000, 1, kspace_error=1e-6)
        assert tight.kspace > loose.kspace
        assert tight.kspace_fft > loose.kspace_fft

    def test_fft_scales_sublinearly_with_ranks(self, model):
        """Section 7: the 3-D FFT's global communication hurts scaling."""
        w = get_workload("rhodo")
        serial = model.compute_times(w, 64_000, 1, n_atoms_total=64_000)
        parallel = model.compute_times(
            w, 1_000, 64, n_atoms_total=64_000
        )
        ideal = serial.kspace_fft / 64
        assert parallel.kspace_fft > ideal

    def test_total_sums_components(self, model):
        t = model.compute_times(get_workload("rhodo"), 10_000, 4, n_atoms_total=40_000)
        parts = t.pair + t.neigh + t.bond + t.kspace + t.modify + t.output + t.other
        assert t.total == pytest.approx(parts)

    def test_invalid_local_count(self, model):
        with pytest.raises(ValueError):
            model.compute_times(get_workload("lj"), 0, 1)


class TestPrecision:
    def test_double_slower_than_single(self):
        single = CpuCostModel(precision="single")
        double = CpuCostModel(precision="double")
        w = get_workload("lj")
        assert double.compute_times(w, 10_000, 1).pair > single.compute_times(
            w, 10_000, 1
        ).pair

    def test_only_pair_task_affected(self):
        """Section 8: the switch changes the pairwise computation only."""
        single = CpuCostModel(precision="single")
        double = CpuCostModel(precision="double")
        w = get_workload("lj")
        ts, td = single.compute_times(w, 10_000, 1), double.compute_times(w, 10_000, 1)
        assert td.neigh == pytest.approx(ts.neigh)
        assert td.modify == pytest.approx(ts.modify)
        assert td.other == pytest.approx(ts.other)

    def test_mixed_close_to_single(self):
        assert precision_pair_factor("lj", "mixed") < 1.1

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            precision_pair_factor("namd", "double")


class TestCoefficients:
    def test_slowed_scales_everything(self):
        base = CpuCostCoefficients()
        slow = base.slowed(1.45)
        model_fast = CpuCostModel(base)
        model_slow = CpuCostModel(slow)
        w = get_workload("lj")
        tf = model_fast.compute_times(w, 10_000, 1)
        ts = model_slow.compute_times(w, 10_000, 1)
        assert ts.pair == pytest.approx(1.45 * tf.pair)
        assert ts.total == pytest.approx(1.45 * tf.total)


class TestKspaceGrid:
    def test_rejects_non_kspace_workload(self):
        with pytest.raises(ValueError):
            kspace_grid(get_workload("lj"), 32_000, 1e-4)

    def test_grid_monotone_in_threshold(self):
        w = get_workload("rhodo")
        grids = [
            np.prod(kspace_grid(w, 2_048_000, acc)[1])
            for acc in (1e-4, 1e-5, 1e-6, 1e-7)
        ]
        assert grids == sorted(grids)
        assert grids[-1] > 20 * grids[0]  # the Section 7 explosion

    def test_memoization_returns_same_object(self):
        w = get_workload("rhodo")
        a = kspace_grid(w, 32_000, 1e-4)
        b = kspace_grid(w, 32_000, 1e-4)
        assert a == b

    def test_memo_is_keyed_on_the_workload_not_its_name(self):
        """An edited copy of a deck is a different deck: quadrupling the
        charge must not be served the original's cached grid."""
        rhodo = get_workload("rhodo")
        assert kspace_grid(rhodo, 32_000, 1e-4)[1] == (36, 36, 36)
        charged = replace(rhodo, qsq_per_atom=4 * rhodo.qsq_per_atom)
        assert kspace_grid(charged, 32_000, 1e-4)[1] == (45, 45, 45)
