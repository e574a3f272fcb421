"""Tests for the simulated CPU-instance executor."""

import pytest

from repro.parallel.executor import BREAKDOWN_TASKS, simulate_cpu_run


class TestBasics:
    def test_result_fields_finite(self):
        r = simulate_cpu_run("lj", 256_000, 16)
        assert r.ts_per_s > 0
        assert r.step_seconds > 0
        assert r.power_watts > 0
        assert r.energy_efficiency == pytest.approx(r.ts_per_s / r.power_watts)

    def test_task_fractions_sum_to_one(self):
        r = simulate_cpu_run("rhodo", 256_000, 16)
        fractions = r.task_fractions()
        assert set(fractions) == set(BREAKDOWN_TASKS)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_deterministic(self):
        a = simulate_cpu_run("chain", 256_000, 32)
        b = simulate_cpu_run("chain", 256_000, 32)
        assert a.ts_per_s == b.ts_per_s
        assert a.mpi_function_seconds == b.mpi_function_seconds

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            simulate_cpu_run("lj", 32_000, 65)

    def test_kspace_error_only_for_rhodo(self):
        with pytest.raises(ValueError):
            simulate_cpu_run("lj", 32_000, 8, kspace_error=1e-6)

    def test_serial_run_has_no_mpi(self):
        r = simulate_cpu_run("lj", 32_000, 1)
        assert r.mpi_time_fraction == 0.0
        assert r.mpi_imbalance_fraction == 0.0
        assert r.task_seconds["Comm"] == 0.0

    def test_ns_per_day_conversion(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64)
        assert r.ns_per_day(2.0) == pytest.approx(
            r.ts_per_s * 2.0 * 1e-6 * 86_400.0
        )


class TestScalingShapes:
    def test_throughput_improves_with_ranks(self):
        series = [
            simulate_cpu_run("lj", 2_048_000, n).ts_per_s for n in (1, 4, 16, 64)
        ]
        assert series == sorted(series)

    def test_parallel_efficiency_below_unity(self):
        r1 = simulate_cpu_run("eam", 2_048_000, 1)
        for n in (2, 8, 32, 64):
            rn = simulate_cpu_run("eam", 2_048_000, n)
            assert rn.ts_per_s / (r1.ts_per_s * n) <= 1.0 + 1e-9

    def test_throughput_falls_with_system_size(self):
        sizes = (32_000, 256_000, 864_000, 2_048_000)
        series = [simulate_cpu_run("chain", n, 64).ts_per_s for n in sizes]
        assert series == sorted(series, reverse=True)

    def test_mpi_overhead_falls_with_system_size(self):
        """Figure 4: overhead decreases as systems grow."""
        small = simulate_cpu_run("lj", 32_000, 64)
        big = simulate_cpu_run("lj", 2_048_000, 64)
        assert big.mpi_time_fraction < small.mpi_time_fraction

    def test_pair_share_tracks_neighbor_count(self):
        """Figure 3: LJ spends >75% serial time in Pair; Chain far less."""
        lj = simulate_cpu_run("lj", 2_048_000, 1).task_fractions()
        chain = simulate_cpu_run("chain", 2_048_000, 1).task_fractions()
        assert lj["Pair"] > 0.75
        assert chain["Pair"] < lj["Pair"]

    def test_kspace_comm_charged_to_kspace_task(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7)
        base = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-4)
        assert r.task_fractions()["Kspace"] > base.task_fractions()["Kspace"]

    def test_memory_independent_of_ranks(self):
        a = simulate_cpu_run("lj", 256_000, 4)
        b = simulate_cpu_run("lj", 256_000, 64)
        assert a.memory_bytes == b.memory_bytes

    def test_power_grows_with_ranks(self):
        assert (
            simulate_cpu_run("lj", 256_000, 64).power_watts
            > simulate_cpu_run("lj", 256_000, 4).power_watts
        )

    def test_core_utilization_ordering(self):
        """Section 5.2: rhodo 83% > eam 63% > chain 56% > lj 48% > chute 24%."""
        utils = {
            b: simulate_cpu_run(b, 256_000, 64).core_utilization
            for b in ("rhodo", "eam", "chain", "lj", "chute")
        }
        assert utils["rhodo"] > utils["eam"] > utils["chain"] > utils["lj"] > utils["chute"]
