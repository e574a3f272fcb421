"""Modeled power of the paper's two nodes (the ``powerstat`` /
``nvidia-smi`` substitute).

The paper samples node power at 0.5 s with ``powerstat`` (CPU instance)
and ``nvidia-smi`` (GPU devices).  Lacking the hardware, we model draw
from utilization: an idle floor plus a per-core (or per-device) active
component capped at TDP.  The per-core formula and the Section 4.2
sampling methodology (0.5 s period, ten-second minimum run) are the
measured telemetry's, imported from :mod:`repro.observability.telemetry`;
:class:`PowerSampler` emulates that sampling loop over a modeled run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.platforms.instances import InstanceSpec
from repro.observability.telemetry.providers import CpuPowerModel
from repro.observability.telemetry.sampler import (
    MIN_RUN_SECONDS,
    SAMPLING_PERIOD_S,
    warn_under_sampled,
)

__all__ = [
    "PowerSample",
    "GpuPowerModel",
    "PowerSampler",
]


@dataclass(frozen=True)
class PowerSample:
    """One 0.5 s power reading."""

    time_s: float
    watts: float


class GpuPowerModel:
    """Node power for the GPU instance: host model + per-device draw.

    Each active V100 draws an idle floor (~40 W) plus utilization times
    the remaining headroom to its 300 W TDP; the host CPU contributes
    through the same per-core model as the CPU instance.
    """

    GPU_IDLE_WATTS = 40.0

    def __init__(self, instance: InstanceSpec) -> None:
        if instance.gpu is None:
            raise ValueError("GpuPowerModel needs an instance with GPUs")
        self.instance = instance
        self._host = CpuPowerModel(
            instance.idle_watts, instance.cpu.tdp_watts, instance.cpu.cores, instance.sockets
        )

    def watts(
        self,
        active_gpus: int,
        gpu_utilization: float,
        host_active_cores: int = 0,
        host_utilization: float = 0.0,
    ) -> float:
        if active_gpus < 0 or not 0.0 <= gpu_utilization <= 1.0:
            raise ValueError("active_gpus >= 0 and gpu_utilization in [0, 1]")
        gpu = self.instance.gpu
        assert gpu is not None
        active_gpus = min(active_gpus, self.instance.n_gpus)
        device_draw = active_gpus * (
            self.GPU_IDLE_WATTS
            + gpu_utilization * (gpu.tdp_watts - self.GPU_IDLE_WATTS)
        )
        # Idle (powered but unused) devices still draw their floor.
        idle_devices = (self.instance.n_gpus - active_gpus) * self.GPU_IDLE_WATTS
        return self._host.watts(host_active_cores, host_utilization) + device_draw + idle_devices


class PowerSampler:
    """Emulates the 0.5 s sampling loop of ``powerstat`` / ``nvidia-smi``.

    Given a mean power and a run duration, produces the discrete sample
    series the real tools would have logged (with small deterministic
    sampling noise), and averages it back the way the aggregator does.
    """

    def __init__(self, seed: int = 0, noise_fraction: float = 0.02) -> None:
        self._rng = np.random.default_rng(seed)
        self.noise_fraction = float(noise_fraction)

    def sample_run(self, mean_watts: float, duration_s: float) -> list[PowerSample]:
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if duration_s < MIN_RUN_SECONDS:
            warn_under_sampled("PowerSampler", duration_s, MIN_RUN_SECONDS)
        times = np.arange(0.0, duration_s, SAMPLING_PERIOD_S)
        noise = self._rng.normal(0.0, self.noise_fraction * mean_watts, len(times))
        return [
            PowerSample(float(t), float(max(0.0, mean_watts + dn)))
            for t, dn in zip(times, noise)
        ]

    @staticmethod
    def average(samples: list[PowerSample]) -> float:
        if not samples:
            raise ValueError("no power samples collected")
        return float(np.mean([s.watts for s in samples]))
