"""Experiment specifications and parameter-space sweeps.

The framework's entry point: the user "defines the mode of operation,
namely profiling or benchmarking, and the parameter space, e.g., number
of MPI processes, system sizes, and input of the benchmark"
(Section 4.2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator

from repro.md.precision import parse_precision
from repro.model.workloads import get_workload

__all__ = ["Mode", "ExperimentSpec", "sweep"]


class Mode(str, Enum):
    """The framework's two modes of operation (Figure 2 A / B)."""

    PROFILING = "profiling"  # mode A: VTune / NSight equivalents
    BENCHMARKING = "benchmarking"  # mode B: performance + power


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of the campaign's parameter space.

    ``resources`` is MPI ranks on the CPU instance and GPU devices on
    the GPU instance (where the rank count is derived from the device
    count, Section 6).
    """

    benchmark: str
    platform: str  # "cpu" | "gpu"
    size_k: int  # thousands of atoms
    resources: int
    mode: Mode = Mode.BENCHMARKING
    precision: str = "mixed"
    kspace_error: float | None = None
    seed: int = 0
    #: Minimum wall-clock runtime so power sampling gets enough samples
    #: (Section 4.2: "at least ten seconds").
    min_runtime_s: float = 10.0

    def __post_init__(self) -> None:
        get_workload(self.benchmark)  # validates the name
        # One spelling per mode, so "Single" and "single" are one cache entry.
        object.__setattr__(self, "precision", parse_precision(self.precision).value)
        if self.platform not in ("cpu", "gpu"):
            raise ValueError(f"platform must be 'cpu' or 'gpu', got {self.platform!r}")
        if self.size_k <= 0 or self.resources <= 0:
            raise ValueError("size_k and resources must be positive")

    @property
    def n_atoms(self) -> int:
        return self.size_k * 1000

    @property
    def label(self) -> str:
        """The paper's naming: ``rhodo``, ``rhodo-e-6``, ``lj-double``…"""
        name = self.benchmark
        baseline = get_workload(self.benchmark).kspace_error
        if self.kspace_error is not None and self.kspace_error != baseline:
            exponent = round(-1 * math.log10(self.kspace_error))
            name = f"{name}-e-{exponent}"
        if self.precision != "mixed":
            name = f"{name}-{self.precision}"
        return name

    def with_mode(self, mode: Mode) -> "ExperimentSpec":
        return replace(self, mode=mode)


def sweep(
    benchmarks: Iterable[str],
    platform: str,
    sizes_k: Iterable[int],
    resources: Iterable[int],
    *,
    mode: Mode = Mode.BENCHMARKING,
    precisions: Iterable[str] = ("mixed",),
    kspace_errors: Iterable[float | None] = (None,),
) -> Iterator[ExperimentSpec]:
    """The cartesian parameter-space iterator of the framework."""
    for bench, size, res, prec, err in itertools.product(
        benchmarks, sizes_k, resources, precisions, kspace_errors
    ):
        if err is not None and not get_workload(bench).has_kspace:
            continue
        yield ExperimentSpec(
            benchmark=bench,
            platform=platform,
            size_k=size,
            resources=res,
            mode=mode,
            precision=prec,
            kspace_error=err,
        )
