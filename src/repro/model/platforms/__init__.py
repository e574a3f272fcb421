"""Hardware descriptions of the two benchmarked instances (Table 3).

The paper's campaign ran on two Oracle-cloud nodes: a dual-socket Intel
Xeon Platinum 8358 "CPU instance" and a dual-socket Xeon 8167M with
eight NVIDIA V100s ("GPU instance").  These dataclasses carry the full
Table 3 specification plus the utilization-based node power models that
substitute for the paper's ``powerstat`` / ``nvidia-smi`` measurements.
"""

from repro.model.platforms.instances import (
    CPU_INSTANCE,
    GPU_INSTANCE,
    CpuSpec,
    GpuSpec,
    InstanceSpec,
)
from repro.model.platforms.power import GpuPowerModel, PowerSample, PowerSampler

__all__ = [
    "CpuSpec",
    "GpuSpec",
    "InstanceSpec",
    "CPU_INSTANCE",
    "GPU_INSTANCE",
    "GpuPowerModel",
    "PowerSample",
    "PowerSampler",
]
