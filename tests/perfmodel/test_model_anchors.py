"""Calibration validation: every anchor number the paper quotes.

These are the "absolute" checkpoints of the reproduction — the
performance model must land within tolerance of each figure the paper
states in its text (shapes are asserted by the figure tests; here it is
the quoted values themselves).
"""

import pytest

from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.model.calibration import PAPER_ANCHORS as A

TOL = 0.20  # 20% on absolute throughput anchors


def eff(p_n, p_1, n):
    return p_n / (p_1 * n)


class TestCpuAnchors:
    def test_rhodo_2048k_64r_throughput(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64)
        assert r.ts_per_s == pytest.approx(A.rhodo_cpu_2048k_64r_ts, rel=TOL)

    def test_rhodo_2048k_64r_parallel_efficiency(self):
        r1 = simulate_cpu_run("rhodo", 2_048_000, 1)
        r64 = simulate_cpu_run("rhodo", 2_048_000, 64)
        measured = eff(r64.ts_per_s, r1.ts_per_s, 64)
        assert measured == pytest.approx(A.rhodo_cpu_2048k_64r_eff, abs=0.08)

    def test_rhodo_error_threshold_slowdown(self):
        base = simulate_cpu_run("rhodo", 2_048_000, 64)
        tight = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7)
        assert tight.ts_per_s == pytest.approx(A.rhodo_cpu_2048k_64r_ts_e7, rel=TOL)
        paper_ratio = A.rhodo_cpu_2048k_64r_ts / A.rhodo_cpu_2048k_64r_ts_e7
        assert base.ts_per_s / tight.ts_per_s == pytest.approx(paper_ratio, rel=0.25)

    def test_rhodo_e7_parallel_efficiency_drops(self):
        r1 = simulate_cpu_run("rhodo", 2_048_000, 1, kspace_error=1e-7)
        r64 = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7)
        measured = eff(r64.ts_per_s, r1.ts_per_s, 64)
        assert measured == pytest.approx(A.rhodo_cpu_2048k_64r_eff_e7, abs=0.10)
        assert measured < A.rhodo_cpu_2048k_64r_eff

    def test_chute_small_system_peak(self):
        best = max(
            simulate_cpu_run("chute", 32_000, n).ts_per_s for n in (16, 32, 64)
        )
        assert best == pytest.approx(A.chute_cpu_32k_best_ts, rel=0.25)

    def test_lj_precision_pair(self):
        single = simulate_cpu_run("lj", 2_048_000, 64, precision="single")
        double = simulate_cpu_run("lj", 2_048_000, 64, precision="double")
        assert single.ts_per_s == pytest.approx(A.lj_cpu_2048k_64r_ts_single, rel=TOL)
        assert double.ts_per_s == pytest.approx(A.lj_cpu_2048k_64r_ts_double, rel=TOL)
        paper_drop = A.lj_cpu_2048k_64r_ts_double / A.lj_cpu_2048k_64r_ts_single
        assert double.ts_per_s / single.ts_per_s == pytest.approx(paper_drop, abs=0.05)

    def test_rhodo_precision_pair(self):
        single = simulate_cpu_run("rhodo", 2_048_000, 64, precision="single")
        double = simulate_cpu_run("rhodo", 2_048_000, 64, precision="double")
        assert single.ts_per_s == pytest.approx(A.rhodo_cpu_2048k_64r_ts_single, rel=TOL)
        assert double.ts_per_s == pytest.approx(A.rhodo_cpu_2048k_64r_ts_double, rel=TOL)

    def test_headline_cpu_ns_per_day(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64)
        assert r.ns_per_day(2.0) == pytest.approx(A.rhodo_cpu_ns_per_day, rel=0.2)

    def test_memory_headline(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64)
        assert r.memory_bytes / 1e9 == pytest.approx(A.max_memory_gb, rel=0.25)


class TestGpuAnchors:
    def test_rhodo_2048k_8g_throughput(self):
        r = simulate_gpu_run("rhodo", 2_048_000, 8)
        assert r.ts_per_s == pytest.approx(A.rhodo_gpu_2048k_8g_ts, rel=TOL)

    def test_rhodo_gpu_error_threshold_collapse(self):
        tight = simulate_gpu_run("rhodo", 2_048_000, 8, kspace_error=1e-7)
        assert tight.ts_per_s == pytest.approx(A.rhodo_gpu_2048k_8g_ts_e7, rel=0.35)
        base = simulate_gpu_run("rhodo", 2_048_000, 8)
        # The paper's ~35x collapse (vs ~3x on CPU).
        assert base.ts_per_s / tight.ts_per_s > 15.0

    def test_lj_gpu_precision(self):
        single = simulate_gpu_run("lj", 2_048_000, 8, precision="single")
        double = simulate_gpu_run("lj", 2_048_000, 8, precision="double")
        assert single.ts_per_s == pytest.approx(A.lj_gpu_2048k_8g_ts_single, rel=TOL)
        assert double.ts_per_s == pytest.approx(A.lj_gpu_2048k_8g_ts_double, rel=TOL)

    def test_rhodo_gpu_precision_barely_moves(self):
        single = simulate_gpu_run("rhodo", 2_048_000, 8, precision="single")
        double = simulate_gpu_run("rhodo", 2_048_000, 8, precision="double")
        assert single.ts_per_s == pytest.approx(A.rhodo_gpu_2048k_8g_ts_single, rel=TOL)
        # < 10% penalty vs the ~28% LJ sees.
        assert double.ts_per_s / single.ts_per_s > 0.90

    def test_headline_gpu_ns_per_day(self):
        r = simulate_gpu_run("rhodo", 2_048_000, 8)
        assert r.ns_per_day(2.0) == pytest.approx(A.rhodo_gpu_ns_per_day, rel=0.2)

    def test_gpu_utilization_2m_headline(self):
        r = simulate_gpu_run("rhodo", 2_048_000, 8)
        assert r.gpu_utilization == pytest.approx(A.gpu_utilization_2m, abs=0.12)

    def test_gpu_parallel_efficiency_floor(self):
        """Some benchmark drops below ~30% efficiency (paper: 23.28%)."""
        floor = 1.0
        for bench in ("chain", "lj", "eam", "rhodo"):
            r1 = simulate_gpu_run(bench, 2_048_000, 1)
            r8 = simulate_gpu_run(bench, 2_048_000, 8)
            floor = min(floor, eff(r8.ts_per_s, r1.ts_per_s, 8))
        assert floor < 0.35

    def test_gpu_scaling_worse_than_cpu(self):
        """Section 6.2: multi-GPU efficiency << CPU MPI efficiency."""
        for bench in ("lj", "rhodo", "chain", "eam"):
            c1 = simulate_cpu_run(bench, 2_048_000, 1)
            c64 = simulate_cpu_run(bench, 2_048_000, 64)
            g1 = simulate_gpu_run(bench, 2_048_000, 1)
            g8 = simulate_gpu_run(bench, 2_048_000, 8)
            assert eff(g8.ts_per_s, g1.ts_per_s, 8) < eff(
                c64.ts_per_s, c1.ts_per_s, 64
            )
