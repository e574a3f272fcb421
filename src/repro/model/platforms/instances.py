"""Instance specifications — a faithful transcription of Table 3."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CpuSpec", "GpuSpec", "InstanceSpec", "CPU_INSTANCE", "GPU_INSTANCE"]


@dataclass(frozen=True)
class CpuSpec:
    """One CPU socket model (Table 3, "CPU Specs")."""

    model: str
    cores: int  # physical cores per socket
    threads: int  # hardware threads per socket
    frequency_ghz: float
    turbo_ghz: float
    l1_kb_per_core: int
    l2_mb_per_core: float
    l3_mb_shared: float
    tech_node_nm: int
    tdp_watts: float


@dataclass(frozen=True)
class GpuSpec:
    """One GPU device model (Table 3, "GPU Specs")."""

    model: str
    sms: int
    global_memory_gb: int
    l2_mb_shared: float
    l1_kb_per_sm: int
    frequency_ghz: float
    tech_node_nm: int
    tdp_watts: float
    #: FP64:FP32 throughput ratio (V100 is 1:2).
    fp64_ratio: float = 0.5
    #: PCIe gen3 x16 practical bandwidth per direction.
    pcie_gb_s: float = 12.0


@dataclass(frozen=True)
class InstanceSpec:
    """A complete single node (Table 3, "Instance Specs")."""

    name: str
    cpu: CpuSpec
    sockets: int
    memory_gb: int
    os: str = "Ubuntu 20.04.4 LTS"
    kernel: str = "Linux 5.13.0-1033-oracle"
    gpu: GpuSpec | None = None
    n_gpus: int = 0
    #: Idle draw of the whole node (fans, DRAM, uncore) — feeds the
    #: power model, not part of Table 3 itself.
    idle_watts: float = 90.0

    @property
    def total_cores(self) -> int:
        return self.cpu.cores * self.sockets

    def validate_resources(self, n_ranks: int = 0, n_gpus: int = 0) -> None:
        """Raise when an experiment asks for more hardware than exists."""
        if n_ranks > self.total_cores:
            raise ValueError(
                f"{n_ranks} MPI ranks exceed the {self.total_cores} physical "
                f"cores of {self.name} (the paper maps one rank per core)"
            )
        if n_gpus > self.n_gpus:
            raise ValueError(
                f"{n_gpus} GPUs requested but {self.name} has {self.n_gpus}"
            )


#: The "CPU instance": dual-socket Xeon Platinum 8358 (Ice Lake, 10 nm).
CPU_INSTANCE = InstanceSpec(
    name="cpu-instance",
    cpu=CpuSpec(
        model="Intel Xeon Platinum 8358",
        cores=32,
        threads=64,
        frequency_ghz=2.6,
        turbo_ghz=3.4,
        l1_kb_per_core=64,
        l2_mb_per_core=1.0,
        l3_mb_shared=48.0,
        tech_node_nm=10,
        tdp_watts=250.0,
    ),
    sockets=2,
    memory_gb=1024,
)

#: The "GPU instance": dual-socket Xeon 8167M plus eight NVIDIA V100s.
GPU_INSTANCE = InstanceSpec(
    name="gpu-instance",
    cpu=CpuSpec(
        model="Intel Xeon Platinum 8167M",
        cores=26,
        threads=52,
        frequency_ghz=2.0,
        turbo_ghz=2.4,
        l1_kb_per_core=32,
        l2_mb_per_core=1.0,
        l3_mb_shared=35.75,
        tech_node_nm=14,
        tdp_watts=165.0,
    ),
    sockets=2,
    memory_gb=768,
    gpu=GpuSpec(
        model="NVIDIA V100",
        sms=84,
        global_memory_gb=16,
        l2_mb_shared=6.0,
        l1_kb_per_sm=128,
        frequency_ghz=1.35,
        tech_node_nm=12,
        tdp_watts=300.0,
    ),
    n_gpus=8,
    idle_watts=120.0,
)
