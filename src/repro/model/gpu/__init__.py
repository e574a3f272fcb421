"""Simulated multi-GPU execution (the LAMMPS GPU-package substitute).

The reference GPU package accelerates *portions* of the timestep as CUDA
kernels while the host keeps ownership of integration, fixes (SHAKE has
no GPU implementation) and bonded forces; every step therefore moves
positions host-to-device and forces device-to-host, which is exactly the
data-movement bottleneck Section 6 diagnoses.  This package models that
offload structure:

* :mod:`repro.model.gpu.kernels` — the kernel catalogue of Figure 8 with
  per-kernel cost laws;
* :mod:`repro.model.gpu.transfers` — the PCIe memcpy model (shared host
  bandwidth, per-transfer latency);
* :mod:`repro.model.gpu.executor` — the simulated GPU-instance run behind
  Figures 7-9, 13 and 16.
"""

from repro.model.gpu.executor import GpuRunResult, simulate_gpu_run
from repro.model.gpu.kernels import KERNELS_BY_BENCHMARK, GpuKernelCoefficients
from repro.model.gpu.transfers import PcieModel

__all__ = [
    "simulate_gpu_run",
    "GpuRunResult",
    "KERNELS_BY_BENCHMARK",
    "GpuKernelCoefficients",
    "PcieModel",
]
