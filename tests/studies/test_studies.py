"""Tests for the ablation/extension studies."""

import pytest

from repro.studies.fft_precision import fft_precision_study
from repro.model.gpu.executor import GpuModelConfig, simulate_gpu_run
from repro.studies.gpu_ranks import best_total_ranks, gpu_rank_tuning_study
from repro.studies.newton import newton_ablation
from repro.studies.skin import (
    optimal_skin,
    skin_sweep_functional,
    skin_sweep_model,
)
from repro.studies.weak_scaling import weak_scaling_study


class TestSkinSweep:
    def test_model_tradeoff_is_convex(self):
        """Too-small and too-large skins both lose; the optimum sits
        near Table 2's 0.3 sigma for the LJ melt."""
        points = skin_sweep_model(skins=(0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2))
        times = [p.step_seconds for p in points]
        best = optimal_skin(points)
        assert 0.1 <= best <= 0.5
        assert times[0] > min(times)  # tiny skin: constant rebuilding
        assert times[-1] > min(times)  # huge skin: bloated lists

    def test_model_rebuild_cadence_grows_with_skin(self):
        points = skin_sweep_model(skins=(0.1, 0.3, 0.8))
        cadences = [p.rebuild_every for p in points]
        assert cadences == sorted(cadences)

    def test_functional_engine_confirms_cadence_trend(self):
        """The real engine rebuilds less often with a larger skin."""
        points = skin_sweep_functional(
            "lj", n_atoms=300, skins=(0.1, 0.5), n_steps=80
        )
        assert points[1].rebuild_every > points[0].rebuild_every
        assert points[1].stored_pairs_per_atom > points[0].stored_pairs_per_atom

    def test_optimal_skin_requires_points(self):
        with pytest.raises(ValueError):
            optimal_skin([])


class TestNewtonAblation:
    def test_newton_on_wins_at_scale(self):
        """Halved pair work dominates when compute-bound."""
        comparisons = newton_ablation(sizes=(2_048_000,), rank_counts=(1,))
        assert comparisons[0].speedup_from_newton > 1.3

    def test_gain_shrinks_when_comm_bound(self):
        """The reverse force exchange eats the gain for small systems
        at high rank counts."""
        comparisons = newton_ablation(sizes=(32_000,), rank_counts=(1, 64))
        serial, wide = comparisons
        assert wide.speedup_from_newton < serial.speedup_from_newton

    def test_workload_registry_restored(self):
        from repro.model.workloads import get_workload

        newton_ablation(sizes=(32_000,), rank_counts=(1,))
        assert get_workload("chute").newton is False  # paper setting intact


class TestGpuRankTuning:
    def test_throughput_grows_up_to_48(self):
        points = gpu_rank_tuning_study(rank_budgets=(8, 16, 32, 48))
        series = [p.ts_per_s for p in points]
        assert series == sorted(series)

    def test_best_is_48_total_ranks(self):
        points = gpu_rank_tuning_study()
        assert best_total_ranks(points) == 48

    def test_paper_claim_more_than_48_never_helps(self):
        """The paper's comparison: the full 52-core budget against 48.
        With 8 devices any budget rounds to a multiple of 8, so it runs
        on 4 devices, where 52 ranks are placeable."""
        for bench in ("lj", "rhodo"):
            at_48, at_52 = (
                simulate_gpu_run(
                    bench, 2_048_000, 4,
                    config=GpuModelConfig(max_total_ranks=budget),
                ).ts_per_s
                for budget in (48, 52)
            )
            assert at_52 <= at_48 * 1.001, bench

    def test_best_requires_points(self):
        with pytest.raises(ValueError):
            best_total_ranks([])


class TestWeakScaling:
    def test_weak_efficiency_stays_high(self):
        """The prior-work result: weak scaling is good (>80% at 64)."""
        points = weak_scaling_study("lj")
        assert points[-1].n_ranks == 64
        assert points[-1].weak_efficiency > 0.8

    def test_weak_beats_strong_at_64_ranks(self):
        from repro.model import simulate_cpu_run

        weak = weak_scaling_study("chute", rank_counts=(1, 64))[-1]
        strong_1 = simulate_cpu_run("chute", 2_048_000, 1)
        strong_64 = simulate_cpu_run("chute", 2_048_000, 64)
        strong_eff = strong_64.ts_per_s / (strong_1.ts_per_s * 64)
        assert weak.weak_efficiency > strong_eff

    def test_atoms_grow_with_ranks(self):
        points = weak_scaling_study("eam", atoms_per_rank=10_000, rank_counts=(1, 4))
        assert points[1].n_atoms == 4 * points[0].n_atoms

    def test_invalid_atoms_per_rank(self):
        with pytest.raises(ValueError):
            weak_scaling_study("lj", atoms_per_rank=0)


class TestFftPrecision:
    def test_penalty_negligible_at_baseline_threshold(self):
        points = fft_precision_study(thresholds=(1e-4,))
        assert points[0].slowdown < 1.05

    def test_penalty_grows_with_tighter_threshold(self):
        points = fft_precision_study(thresholds=(1e-4, 1e-6, 1e-7))
        slowdowns = [p.slowdown for p in points]
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[-1] > 1.2  # -DFFT_SINGLE matters at 1e-7
