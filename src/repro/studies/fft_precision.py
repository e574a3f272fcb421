"""``-DFFT_SINGLE`` ablation: single- vs double-precision FFTs.

Section 4.3 lists the build flags: the authors compile LAMMPS with
``-DFFT_MKL -DFFT_SINGLE``.  This study quantifies what that flag buys
by re-running the Rhodopsin error-threshold sweep with double-precision
FFTs: the FFT flops cost ~1.6x more and the transpose (and, on the GPU
node, PCIe) traffic doubles — negligible at the 1e-4 baseline, sizable
at 1e-7 where the grid dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.costs import CpuCostCoefficients, CpuCostModel
from repro.model.cpu.executor import simulate_cpu_run

__all__ = ["FftPrecisionPoint", "fft_precision_study"]

#: Double-precision FFT arithmetic/bandwidth penalty on the host.
FFT_DOUBLE_FACTOR = 1.6


@dataclass(frozen=True)
class FftPrecisionPoint:
    kspace_error: float
    ts_fft_single: float
    ts_fft_double: float

    @property
    def slowdown(self) -> float:
        return self.ts_fft_single / self.ts_fft_double


def fft_precision_study(
    n_atoms: int = 2_048_000,
    n_ranks: int = 64,
    thresholds: tuple[float, ...] = (1e-4, 1e-5, 1e-6, 1e-7),
    seed: int = 0,
) -> list[FftPrecisionPoint]:
    """Rhodopsin with single (the paper's build) vs double FFTs."""
    base_coeffs = CpuCostCoefficients()
    double_coeffs = replace(
        base_coeffs,
        fft_per_point_log=base_coeffs.fft_per_point_log * FFT_DOUBLE_FACTOR,
    )
    points = []
    for threshold in thresholds:
        single = simulate_cpu_run(
            "rhodo",
            n_atoms,
            n_ranks,
            kspace_error=threshold,
            seed=seed,
            cost_model=CpuCostModel(base_coeffs),
        )
        double = simulate_cpu_run(
            "rhodo",
            n_atoms,
            n_ranks,
            kspace_error=threshold,
            seed=seed,
            cost_model=CpuCostModel(double_coeffs),
        )
        points.append(
            FftPrecisionPoint(
                kspace_error=threshold,
                ts_fft_single=single.ts_per_s,
                ts_fft_double=double.ts_per_s,
            )
        )
    return points
