"""Hypothesis property tests over the whole performance-model surface.

Randomized configurations (benchmark x size x resources x precision x
threshold) must always satisfy the structural invariants — regardless of
where in the campaign space they land.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.timers import fractions
from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.suite import CPU_BENCHMARKS, GPU_BENCHMARKS

cpu_bench = st.sampled_from(CPU_BENCHMARKS)
gpu_bench = st.sampled_from(GPU_BENCHMARKS)
size = st.sampled_from([32_000, 137_000, 256_000, 864_000, 2_048_000])
ranks = st.sampled_from([1, 2, 3, 4, 8, 12, 16, 32, 48, 64])
gpus = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8])
precision = st.sampled_from(["single", "mixed", "double"])


class TestCpuModelInvariants:
    @given(bench=cpu_bench, n=size, p=ranks, prec=precision)
    @settings(max_examples=40, deadline=None)
    def test_result_well_formed(self, bench, n, p, prec):
        r = simulate_cpu_run(bench, n, p, precision=prec)
        assert r.ts_per_s > 0 and np.isfinite(r.ts_per_s)
        assert r.step_seconds == pytest.approx(1.0 / r.ts_per_s)
        assert 0 <= r.mpi_imbalance_fraction <= r.mpi_time_fraction <= 1.0
        assert 0 < r.core_utilization <= 1.0
        assert r.power_watts > 0
        shares = fractions(r.task_seconds)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in shares.values())

    @given(bench=cpu_bench, n=size, p=st.sampled_from([2, 4, 8, 16, 32, 64]))
    @settings(max_examples=30, deadline=None)
    def test_parallel_efficiency_never_exceeds_one(self, bench, n, p):
        serial = simulate_cpu_run(bench, n, 1)
        parallel = simulate_cpu_run(bench, n, p)
        assert parallel.ts_per_s <= serial.ts_per_s * p * (1 + 1e-9)

    @given(bench=cpu_bench, n=size, p=ranks)
    @settings(max_examples=30, deadline=None)
    def test_double_never_faster_than_single(self, bench, n, p):
        single = simulate_cpu_run(bench, n, p, precision="single")
        double = simulate_cpu_run(bench, n, p, precision="double")
        assert double.ts_per_s <= single.ts_per_s * (1 + 1e-9)

    @given(n=size, p=ranks, acc=st.sampled_from([1e-4, 1e-5, 1e-6, 1e-7]))
    @settings(max_examples=25, deadline=None)
    def test_tighter_threshold_never_faster(self, n, p, acc):
        base = simulate_cpu_run("rhodo", n, p, kspace_error=1e-4)
        swept = simulate_cpu_run("rhodo", n, p, kspace_error=acc)
        assert swept.ts_per_s <= base.ts_per_s * (1 + 1e-9)

    @given(bench=cpu_bench, n=size, p=ranks)
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, bench, n, p):
        a = simulate_cpu_run(bench, n, p)
        b = simulate_cpu_run(bench, n, p)
        assert a.ts_per_s == b.ts_per_s
        assert a.task_seconds == b.task_seconds


class TestGpuModelInvariants:
    @given(bench=gpu_bench, n=size, g=gpus, prec=precision)
    @settings(max_examples=40, deadline=None)
    def test_result_well_formed(self, bench, n, g, prec):
        r = simulate_gpu_run(bench, n, g, precision=prec)
        assert r.ts_per_s > 0 and np.isfinite(r.ts_per_s)
        assert 0 < r.gpu_utilization <= 1.0
        assert 0 <= r.pcie_utilization <= 1.0
        assert r.total_ranks <= 48
        assert sum(fractions(r.task_seconds).values()) == pytest.approx(1.0)
        assert sum(fractions(r.kernel_seconds).values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in r.kernel_seconds.values())

    @given(bench=gpu_bench, n=size, g=st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_multi_gpu_efficiency_near_or_below_one(self, bench, n, g):
        """Splitting atoms over devices relieves the neighbor kernel's
        occupancy congestion, so mild super-linearity (like cache-driven
        super-linearity on real hardware) is possible — but bounded."""
        one = simulate_gpu_run(bench, n, 1)
        many = simulate_gpu_run(bench, n, g)
        assert many.ts_per_s <= one.ts_per_s * g * 1.10

    @given(n=size, g=gpus)
    @settings(max_examples=20, deadline=None)
    def test_memcpy_always_present(self, n, g):
        r = simulate_gpu_run("lj", n, g)
        assert r.kernel_seconds["[CUDA memcpy HtoD]"] > 0
        assert r.kernel_seconds["[CUDA memcpy DtoH]"] > 0
