"""Tests for the MPI function-time accounting and imbalance model."""

import numpy as np
import pytest

from repro.md.timers import fractions
from repro.model.cpu.mpi_model import MPI_FUNCTIONS, MpiModel
from repro.model.workloads import get_workload
from repro.parallel.decomposition import SubdomainGeometry


def _geometry(workload, n_atoms, n_ranks):
    return SubdomainGeometry.build(
        n_ranks,
        workload.box_lengths(n_atoms),
        ghost_cutoff=workload.cutoff + workload.skin,
        number_density=workload.number_density,
        quasi_2d=workload.quasi_2d,
    )


def _times(benchmark="lj", n_atoms=256_000, n_ranks=16, seed=0, grid_points=0.0):
    workload = get_workload(benchmark)
    model = MpiModel()
    geometry = _geometry(workload, n_atoms, n_ranks)
    compute = np.full(n_ranks, 1e-3) * model.rank_jitter(
        workload, n_ranks, n_atoms, seed
    )
    return model.step_times(workload, geometry, compute, kspace_grid_points=grid_points)


class TestStructure:
    def test_function_catalogue(self):
        assert MPI_FUNCTIONS == (
            "MPI_Allreduce",
            "MPI_Init",
            "MPI_Send",
            "MPI_Sendrecv",
            "MPI_Wait",
            "MPI_Waitany",
            "others",
        )

    def test_serial_run_has_no_mpi_time(self):
        times = _times(n_ranks=1)
        assert times.total == 0.0
        assert times.imbalance == 0.0

    def test_rank_count_mismatch_rejected(self):
        workload = get_workload("lj")
        model = MpiModel()
        geometry = _geometry(workload, 32_000, 8)
        with pytest.raises(ValueError):
            model.step_times(workload, geometry, np.ones(4))

    def test_per_function_entries_complete(self):
        times = _times()
        assert set(times.per_function) == set(MPI_FUNCTIONS)
        assert all(v >= 0 for v in times.per_function.values())

    def test_fractions_sum_to_one(self):
        times = _times()
        assert sum(fractions(times.per_function).values()) == pytest.approx(1.0)


class TestPaperFindings:
    def test_init_grows_with_rank_count(self):
        """Section 5.1: per-rank MPI_Init time rises with rank count."""
        model = MpiModel()
        busy = 1e-3
        assert (
            model.init_seconds_per_step(64, busy)
            > model.init_seconds_per_step(8, busy)
            > 0
        )
        assert model.init_seconds_per_step(1, busy) == 0.0

    def test_init_scales_with_runtime(self):
        """The paper verified Init time scales with total execution time
        (on top of a fixed per-run setup cost)."""
        workload = get_workload("lj")
        model = MpiModel()
        geometry = _geometry(workload, 256_000, 16)
        short = model.step_times(workload, geometry, np.full(16, 1e-3))
        long = model.step_times(workload, geometry, np.full(16, 1e-1))
        fixed = model.init_base_s / model.n_steps
        scaling_short = short.per_function["MPI_Init"] - fixed
        scaling_long = long.per_function["MPI_Init"] - fixed
        assert scaling_long == pytest.approx(100 * scaling_short)

    def test_init_dominates_small_fast_systems(self):
        """Figure 5: MPI_Init is the biggest MPI entry for 32k panels."""
        times = _times("lj", n_atoms=32_000, n_ranks=64)
        shares = fractions(times.per_function)
        assert shares["MPI_Init"] == max(shares.values())

    def test_transfer_terms_grow_with_system_size(self):
        small = _times(n_atoms=32_000)
        big = _times(n_atoms=2_048_000)
        assert big.per_function["MPI_Sendrecv"] > small.per_function["MPI_Sendrecv"]
        assert big.per_function["MPI_Send"] > small.per_function["MPI_Send"]

    def test_imbalance_ordering_chain_vs_lj(self):
        """Figure 4 bottom: Chain/Chute wait far more than LJ/EAM."""
        chain = _times("chain", n_ranks=32, seed=1)
        lj = _times("lj", n_ranks=32, seed=1)
        assert chain.imbalance > lj.imbalance

    def test_kspace_adds_waitany_traffic(self):
        without = _times("rhodo", grid_points=0.0)
        with_grid = _times("rhodo", grid_points=3e6)
        assert with_grid.per_function["MPI_Waitany"] > without.per_function["MPI_Waitany"]
        assert with_grid.per_function["MPI_Send"] > without.per_function["MPI_Send"]

    def test_newton_off_skips_reverse_exchange(self):
        """Chute sends no force payload back (no Newton sharing)."""
        workload = get_workload("chute")
        model = MpiModel()
        geometry = _geometry(workload, 256_000, 16)
        times = model.step_times(workload, geometry, np.full(16, 1e-3))
        # Send carries only reverse-comm + fft bytes: none for chute.
        assert times.per_function["MPI_Send"] < times.per_function["MPI_Sendrecv"]


class TestDeterminism:
    def test_jitter_deterministic_across_calls(self):
        workload = get_workload("chain")
        model = MpiModel()
        a = model.rank_jitter(workload, 32, 256_000, seed=5)
        b = model.rank_jitter(workload, 32, 256_000, seed=5)
        assert np.array_equal(a, b)

    def test_jitter_varies_with_seed(self):
        workload = get_workload("chain")
        model = MpiModel()
        a = model.rank_jitter(workload, 32, 256_000, seed=5)
        b = model.rank_jitter(workload, 32, 256_000, seed=6)
        assert not np.array_equal(a, b)

    def test_jitter_positive(self):
        workload = get_workload("chute")
        jitter = MpiModel().rank_jitter(workload, 64, 32_000, seed=0)
        assert np.all(jitter >= 0.5)

    def test_serial_jitter_is_unity(self):
        workload = get_workload("lj")
        assert MpiModel().rank_jitter(workload, 1, 32_000, 0).tolist() == [1.0]
