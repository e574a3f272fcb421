"""Tests for the simulated CPU-instance executor."""

from dataclasses import replace

import pytest

from repro.md.timers import TASKS, fractions
from repro.model.costs import CpuCostModel
from repro.model.cpu.executor import simulate_cpu_run
from repro.model.cpu.multinode import simulate_multinode_run
from repro.model.cpu.openmp import simulate_hybrid_run
from repro.model.gpu import simulate_gpu_run
from repro.model.workloads import get_workload

#: The four modeled executors, each called with (benchmark, atoms, resources).
EXECUTORS = {
    "cpu": simulate_cpu_run,
    "gpu": simulate_gpu_run,
    "multinode": simulate_multinode_run,
    "hybrid": lambda bench, n, res, **kw: simulate_hybrid_run(bench, n, res, 2, **kw),
}


class TestBasics:
    def test_result_fields_finite(self):
        r = simulate_cpu_run("lj", 256_000, 16)
        assert r.ts_per_s > 0
        assert r.step_seconds > 0
        assert r.power_watts > 0
        assert r.energy_efficiency == pytest.approx(r.ts_per_s / r.power_watts)

    def test_task_fractions_sum_to_one(self):
        r = simulate_cpu_run("rhodo", 256_000, 16)
        shares = fractions(r.task_seconds)
        assert tuple(shares) == TASKS
        assert sum(shares.values()) == pytest.approx(1.0)

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
        seconds_per_day = 24 * 3600
        assert r.ns_per_day(2.0) == pytest.approx(r.ts_per_s * 2.0e-6 * seconds_per_day)


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
        lj = fractions(simulate_cpu_run("lj", 2_048_000, 1).task_seconds)
        chain = fractions(simulate_cpu_run("chain", 2_048_000, 1).task_seconds)
        assert lj["Pair"] > 0.75
        assert chain["Pair"] < lj["Pair"]

    def test_kspace_comm_charged_to_kspace_task(self):
        r = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7)
        base = simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-4)
        assert fractions(r.task_seconds)["Kspace"] > fractions(base.task_seconds)["Kspace"]

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


class TestRankSetup:
    """The four executors share one per-rank setup: same validation,
    same workload handling, one cost evaluation."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_threshold_rejected_without_kspace(self, executor):
        with pytest.raises(ValueError, match="no long-range forces"):
            EXECUTORS[executor]("lj", 32_000, 2, kspace_error=1e-6)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_workload_accepted_for_its_name(self, executor):
        simulate = EXECUTORS[executor]
        by_name = simulate("rhodo", 256_000, 2)
        by_workload = simulate(get_workload("rhodo"), 256_000, 2)
        assert repr(by_workload) == repr(by_name)

    def test_edited_workload_is_modeled_without_touching_the_table(self):
        chute = get_workload("chute")
        on = simulate_cpu_run(replace(chute, newton=True), 256_000, 8)
        assert on.ts_per_s != simulate_cpu_run("chute", 256_000, 8).ts_per_s
        assert get_workload("chute") is chute and not chute.newton

    def test_kspace_switched_off_on_an_edited_workload(self):
        rhodo = get_workload("rhodo")
        off = simulate_cpu_run(replace(rhodo, has_kspace=False), 256_000, 8)
        assert off.kspace_error is None
        assert off.task_seconds["Kspace"] == 0.0

    def test_kspace_switched_on_needs_a_threshold(self):
        lj = get_workload("lj")
        with pytest.raises(ValueError, match="needs a kspace_error"):
            replace(lj, has_kspace=True, qsq_per_atom=119.0)
        on = replace(lj, has_kspace=True, qsq_per_atom=119.0, kspace_error=1e-4)
        assert simulate_cpu_run(on, 256_000, 8).kspace_error == 1e-4

    def test_renamed_workload_needs_no_suite_entry(self):
        renamed = replace(get_workload("rhodo"), name="rhodo-copy")
        assert simulate_cpu_run(renamed, 256_000, 8).kspace_error == 1e-4

    @pytest.mark.parametrize("executor", ["cpu", "multinode", "hybrid"])
    def test_compute_times_evaluated_once(self, executor, monkeypatch):
        calls = []
        original = CpuCostModel.compute_times

        def counting(self, *args, **kwargs):
            calls.append(args[0].name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CpuCostModel, "compute_times", counting)
        EXECUTORS[executor]("rhodo", 256_000, 4)
        assert calls == ["rhodo"]
