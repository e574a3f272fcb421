"""Tests for the Table 3 instance specs and the power models."""

import pytest

from repro.model.platforms.instances import CPU_INSTANCE, GPU_INSTANCE
from repro.model.platforms.power import GpuPowerModel, PowerSampler
from repro.observability.telemetry.providers import CpuPowerModel
from repro.observability.telemetry.sampler import (
    MIN_RUN_SECONDS,
    SAMPLING_PERIOD_S,
    UnderSampledRunWarning,
    reset_under_sample_warnings,
)


class TestTable3Specs:
    def test_cpu_instance_matches_table3(self):
        cpu = CPU_INSTANCE.cpu
        assert cpu.model == "Intel Xeon Platinum 8358"
        assert cpu.cores == 32 and cpu.threads == 64
        assert cpu.frequency_ghz == pytest.approx(2.6)
        assert cpu.turbo_ghz == pytest.approx(3.4)
        assert cpu.l3_mb_shared == pytest.approx(48.0)
        assert cpu.tdp_watts == pytest.approx(250.0)
        assert CPU_INSTANCE.sockets == 2
        assert CPU_INSTANCE.memory_gb == 1024
        assert CPU_INSTANCE.total_cores == 64

    def test_gpu_instance_matches_table3(self):
        host = GPU_INSTANCE.cpu
        assert host.model == "Intel Xeon Platinum 8167M"
        assert host.cores == 26
        assert GPU_INSTANCE.total_cores == 52
        gpu = GPU_INSTANCE.gpu
        assert gpu is not None
        assert gpu.model == "NVIDIA V100"
        assert gpu.sms == 84
        assert gpu.global_memory_gb == 16
        assert gpu.frequency_ghz == pytest.approx(1.35)
        assert gpu.tdp_watts == pytest.approx(300.0)
        assert GPU_INSTANCE.n_gpus == 8
        assert GPU_INSTANCE.memory_gb == 768

    def test_resource_validation(self):
        CPU_INSTANCE.validate_resources(n_ranks=64)
        with pytest.raises(ValueError, match="physical"):
            CPU_INSTANCE.validate_resources(n_ranks=65)
        GPU_INSTANCE.validate_resources(n_gpus=8)
        with pytest.raises(ValueError):
            GPU_INSTANCE.validate_resources(n_gpus=9)


def cpu_instance_model() -> CpuPowerModel:
    cpu = CPU_INSTANCE.cpu
    return CpuPowerModel(CPU_INSTANCE.idle_watts, cpu.tdp_watts, cpu.cores, CPU_INSTANCE.sockets)


class TestCpuPowerModel:
    def test_idle_floor(self):
        model = cpu_instance_model()
        assert model.watts(0, 0.0) == pytest.approx(CPU_INSTANCE.idle_watts)

    def test_monotonic_in_cores_and_utilization(self):
        model = cpu_instance_model()
        assert model.watts(64, 0.5) > model.watts(32, 0.5)
        assert model.watts(32, 0.8) > model.watts(32, 0.4)

    def test_capped_at_tdp(self):
        model = cpu_instance_model()
        cap = CPU_INSTANCE.idle_watts + 2 * 250.0
        assert model.watts(64, 1.0) <= cap

    def test_invalid_inputs(self):
        model = cpu_instance_model()
        with pytest.raises(ValueError):
            model.watts(-1, 0.5)
        with pytest.raises(ValueError):
            model.watts(4, 1.5)


class TestGpuPowerModel:
    def test_requires_gpus(self):
        with pytest.raises(ValueError):
            GpuPowerModel(CPU_INSTANCE)

    def test_idle_devices_draw_floor(self):
        model = GpuPowerModel(GPU_INSTANCE)
        base = model.watts(0, 0.0)
        # 8 idle V100s at the 40 W floor plus the host idle.
        assert base == pytest.approx(GPU_INSTANCE.idle_watts + 8 * 40.0)

    def test_utilization_scales_device_draw(self):
        model = GpuPowerModel(GPU_INSTANCE)
        assert model.watts(8, 0.9) > model.watts(8, 0.2)

    def test_host_contribution(self):
        model = GpuPowerModel(GPU_INSTANCE)
        assert model.watts(4, 0.5, host_active_cores=48, host_utilization=0.5) > model.watts(
            4, 0.5
        )


class TestPowerSampler:
    def test_sampling_rate_half_second(self):
        sampler = PowerSampler(seed=1)
        samples = sampler.sample_run(200.0, 10.0)
        assert len(samples) == int(10.0 / SAMPLING_PERIOD_S)
        assert samples[1].time_s - samples[0].time_s == pytest.approx(0.5)

    def test_short_run_warns_but_returns_series(self):
        """Section 4.2: runs shorter than 10 s are flagged, not rejected."""
        reset_under_sample_warnings()
        with pytest.warns(UnderSampledRunWarning, match="5.00 s"):
            samples = PowerSampler().sample_run(200.0, MIN_RUN_SECONDS / 2)
        assert len(samples) == int((MIN_RUN_SECONDS / 2) / SAMPLING_PERIOD_S)

    def test_short_run_warning_fires_once_per_process(self):
        reset_under_sample_warnings()
        with pytest.warns(UnderSampledRunWarning):
            PowerSampler().sample_run(200.0, 1.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", UnderSampledRunWarning)
            PowerSampler().sample_run(200.0, 1.0)

    def test_zero_duration_still_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PowerSampler().sample_run(200.0, 0.0)

    def test_average_recovers_mean(self):
        sampler = PowerSampler(seed=2)
        samples = sampler.sample_run(300.0, 60.0)
        assert PowerSampler.average(samples) == pytest.approx(300.0, rel=0.02)

    def test_average_of_nothing_rejected(self):
        with pytest.raises(ValueError):
            PowerSampler.average([])

    def test_deterministic_per_seed(self):
        a = PowerSampler(seed=3).sample_run(100.0, 12.0)
        b = PowerSampler(seed=3).sample_run(100.0, 12.0)
        assert all(x.watts == y.watts for x, y in zip(a, b))
