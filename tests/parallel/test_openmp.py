"""Tests for the hybrid MPI x OpenMP model (Section 2.2's aside)."""

import pytest

from repro.model.cpu.openmp import OpenMpModel, best_hybrid_split, simulate_hybrid_run


class TestOpenMpModel:
    def test_amdahl_speedup_bounded(self):
        omp = OpenMpModel(parallel_fraction=0.9)
        assert omp.thread_speedup(1, 0.9) == pytest.approx(1.0)
        assert omp.thread_speedup(1000, 0.9) < 10.0  # Amdahl ceiling

    def test_speedup_monotone_in_threads(self):
        omp = OpenMpModel()
        s = [omp.thread_speedup(n, 0.93) for n in (1, 2, 4, 8)]
        assert s == sorted(s)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OpenMpModel().thread_speedup(0, 0.9)


class TestHybridRuns:
    def test_one_thread_is_pure_mpi(self):
        from repro.model import simulate_cpu_run

        hybrid = simulate_hybrid_run("lj", 256_000, 16, 1)
        pure = simulate_cpu_run("lj", 256_000, 16)
        assert hybrid.ts_per_s == pure.ts_per_s

    def test_threads_do_speed_up_a_fixed_rank_count(self):
        base = simulate_hybrid_run("lj", 256_000, 8, 1)
        threaded = simulate_hybrid_run("lj", 256_000, 8, 4)
        assert threaded.ts_per_s > base.ts_per_s

    def test_core_budget_enforced(self):
        with pytest.raises(ValueError):
            simulate_hybrid_run("lj", 256_000, 32, 4)  # 128 > 64 cores

    def test_threading_helps_threaded_tasks_only(self):
        base = simulate_hybrid_run("rhodo", 256_000, 8, 1)
        threaded = simulate_hybrid_run("rhodo", 256_000, 8, 4)
        assert threaded.task_seconds["Pair"] < base.task_seconds["Pair"]
        # Rank-level FFTs do not benefit from threads in this build.
        assert threaded.task_seconds["Kspace"] == pytest.approx(
            base.task_seconds["Kspace"], rel=1e-6
        )


class TestPaperConclusion:
    @pytest.mark.parametrize("bench_name", ["lj", "chain", "eam", "chute", "rhodo"])
    def test_pure_mpi_wins_every_benchmark(self, bench_name):
        """Section 2.2: OpenMP or any hybrid was less performing than
        pure MPI in all cases."""
        ranks, threads, _ = best_hybrid_split(bench_name, 256_000, total_cores=16)
        assert threads == 1
        assert ranks == 16

    def test_pure_mpi_wins_at_full_node(self):
        ranks, threads, ts = best_hybrid_split("lj", 2_048_000, total_cores=64)
        assert (ranks, threads) == (64, 1)
        hybrid = simulate_hybrid_run("lj", 2_048_000, 8, 8)
        assert ts > hybrid.ts_per_s
