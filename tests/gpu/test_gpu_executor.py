"""Tests for the simulated GPU-instance executor."""

import pytest

from repro.md.timers import fractions
from repro.model.gpu.executor import GpuModelConfig, simulate_gpu_run
from repro.model.platforms.instances import GPU_INSTANCE


class TestBasics:
    def test_chute_rejected(self):
        """Section 6: gran/hooke has no GPU pair style."""
        with pytest.raises(ValueError, match="unsupported"):
            simulate_gpu_run("chute", 32_000, 1)

    def test_too_many_gpus_rejected(self):
        with pytest.raises(ValueError):
            simulate_gpu_run("lj", 32_000, 9)

    def test_kspace_error_only_for_rhodo(self):
        with pytest.raises(ValueError):
            simulate_gpu_run("lj", 32_000, 2, kspace_error=1e-6)

    def test_deterministic(self):
        a = simulate_gpu_run("eam", 256_000, 4)
        b = simulate_gpu_run("eam", 256_000, 4)
        assert a.ts_per_s == b.ts_per_s

    def test_total_ranks_capped_at_48(self):
        """The paper found no more than 48 MPI ranks beneficial."""
        for gpus in (1, 2, 4, 6, 8):
            r = simulate_gpu_run("lj", 256_000, gpus)
            assert r.total_ranks <= 48
            assert r.total_ranks % gpus == 0

    def test_task_and_kernel_fractions_normalized(self):
        r = simulate_gpu_run("rhodo", 256_000, 4)
        assert sum(fractions(r.task_seconds).values()) == pytest.approx(1.0)
        assert sum(fractions(r.kernel_seconds).values()) == pytest.approx(1.0)

    def test_utilizations_bounded(self):
        r = simulate_gpu_run("lj", 2_048_000, 8)
        assert 0 < r.gpu_utilization <= 1.0
        assert 0 <= r.pcie_utilization <= 1.0


class TestPaperShapes:
    def test_memcpy_entries_reported(self):
        r = simulate_gpu_run("lj", 256_000, 2)
        assert r.kernel_seconds["[CUDA memcpy HtoD]"] > 0
        assert r.kernel_seconds["[CUDA memcpy DtoH]"] > 0

    def test_data_movement_majority_of_device_time(self):
        """Section 6.1: 'the majority of the time actively spent by the
        GPU is involved in memory movement primitives'."""
        r = simulate_gpu_run("lj", 2_048_000, 8)
        moved = sum(
            v for k, v in r.kernel_seconds.items() if k.startswith("[CUDA")
        )
        computed = sum(
            v for k, v in r.kernel_seconds.items() if not k.startswith("[CUDA")
        )
        assert moved > 0.5 * computed

    def test_eam_beats_chain_on_gpu(self):
        """Section 6.2: EAM outperforms Chain on the GPU instance."""
        for size in (256_000, 2_048_000):
            eam = simulate_gpu_run("eam", size, 8).ts_per_s
            chain = simulate_gpu_run("chain", size, 8).ts_per_s
            assert eam > chain

    def test_chain_beats_eam_on_cpu(self):
        """...contrary to the CPU instance ordering."""
        from repro.model import simulate_cpu_run

        eam = simulate_cpu_run("eam", 2_048_000, 64).ts_per_s
        chain = simulate_cpu_run("chain", 2_048_000, 64).ts_per_s
        assert chain > eam

    def test_rhodo_pair_share_below_quarter(self):
        """Section 6.1: the GPU pair kernel takes <25% for Rhodopsin."""
        r = simulate_gpu_run("rhodo", 2_048_000, 8)
        assert fractions(r.task_seconds)["Pair"] < 0.25

    def test_eam_still_pair_dominated_on_gpu(self):
        r = simulate_gpu_run("eam", 2_048_000, 8)
        shares = fractions(r.task_seconds)
        assert shares["Pair"] == max(shares.values())

    def test_rhodo_modify_is_host_burden(self):
        """SHAKE has no GPU port: Modify stays relevant on the GPU node."""
        r = simulate_gpu_run("rhodo", 2_048_000, 8)
        assert fractions(r.task_seconds)["Modify"] > 0.10

    def test_neigh_kernel_breaking_point(self):
        """Section 6.1: the neighbor kernel leads only at 2048k atoms."""

        def top_kernel(n_atoms):
            r = simulate_gpu_run("rhodo", n_atoms, 8)
            compute = {
                k: v for k, v in r.kernel_seconds.items() if not k.startswith("[")
            }
            return max(compute, key=compute.get)

        assert top_kernel(864_000) in ("make_rho", "particle_map")
        assert top_kernel(2_048_000) == "calc_neigh_list_cell"

    def test_error_threshold_inflates_htod(self):
        """Section 7: tighter thresholds blow up CUDA memcpy HtoD."""
        base = simulate_gpu_run("rhodo", 2_048_000, 8)
        tight = simulate_gpu_run("rhodo", 2_048_000, 8, kspace_error=1e-7)
        assert (
            tight.kernel_seconds["[CUDA memcpy HtoD]"]
            > 10 * base.kernel_seconds["[CUDA memcpy HtoD]"]
        )

    def test_utilization_drops_with_tight_threshold(self):
        base = simulate_gpu_run("rhodo", 2_048_000, 8)
        tight = simulate_gpu_run("rhodo", 2_048_000, 8, kspace_error=1e-7)
        assert tight.gpu_utilization < base.gpu_utilization


class TestConfig:
    def test_ranks_for_divisibility(self):
        cfg = GpuModelConfig()
        for gpus in (1, 2, 4, 6, 8):
            total = cfg.ranks_for(gpus, GPU_INSTANCE)
            assert total % gpus == 0
            assert total <= 48

    def test_custom_config_respected(self):
        cfg = GpuModelConfig(max_total_ranks=8)
        r = simulate_gpu_run("lj", 256_000, 2, config=cfg)
        assert r.total_ranks == 8

    def test_power_includes_idle_devices(self):
        one = simulate_gpu_run("lj", 256_000, 1)
        # Even one active GPU pays the other seven's idle floor.
        assert one.power_watts > 7 * 40.0
