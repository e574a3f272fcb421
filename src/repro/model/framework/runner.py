"""Experiment execution: benchmarking (mode B) and profiling (mode A).

``run_experiment`` drives one :class:`~repro.model.framework.experiment.ExperimentSpec`
through the simulated platform executors and packages the observations
into a flat :class:`RunRecord` — the row format the aggregator stores in
``runs.csv`` (mirroring the authors' artifact layout).

Benchmarking mode additionally emulates the measurement protocol: it
sizes the run to last at least ten seconds and feeds the mean power
through the 0.5 s :class:`~repro.model.platforms.power.PowerSampler` loop, so
the recorded watts carry realistic sampling noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.md.timers import fractions
from repro.model.cpu.executor import simulate_cpu_run
from repro.model.framework.efficiency import timesteps_for_runtime
from repro.model.framework.experiment import ExperimentSpec, Mode
from repro.model.gpu.executor import simulate_gpu_run
from repro.model.platforms.power import PowerSampler
from repro.model.workloads import get_workload

__all__ = ["RunRecord", "run_experiment"]


@dataclass
class RunRecord:
    """One row of the campaign's results table."""

    label: str
    benchmark: str
    platform: str
    size_k: int
    resources: int
    mode: str
    precision: str
    kspace_error: float | None
    n_timesteps: int
    runtime_s: float
    ts_per_s: float
    power_watts: float
    energy_efficiency: float
    mpi_time_fraction: float
    mpi_imbalance_fraction: float
    utilization: float
    memory_gb: float
    #: Profiling payloads (mode A): task and function breakdowns.
    task_fractions: dict[str, float] = field(default_factory=dict)
    mpi_function_fractions: dict[str, float] = field(default_factory=dict)
    kernel_fractions: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------- csv
    #: Column order of ``runs.csv``: the fields above, in order.
    CSV_FIELDS: ClassVar[tuple[str, ...]]

    def to_row(self) -> list[str]:
        values = []
        for name in self.CSV_FIELDS:
            value = getattr(self, name)
            if isinstance(value, dict):
                values.append(json.dumps(value, sort_keys=True))
            elif value is None:
                values.append("")
            else:
                values.append(str(value))
        return values

    @classmethod
    def from_row(cls, row: list[str]) -> "RunRecord":
        if len(row) != len(cls.CSV_FIELDS):
            raise ValueError(
                f"expected {len(cls.CSV_FIELDS)} columns, got {len(row)}"
            )
        return cls(**{
            f.name: _CELL_READERS[f.type](raw) for f, raw in zip(fields(cls), row)
        })


RunRecord.CSV_FIELDS = tuple(f.name for f in fields(RunRecord))

#: How a ``runs.csv`` cell is read back, by the field's annotation.
_CELL_READERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda raw: float(raw) if raw else None,
    "dict[str, float]": lambda raw: json.loads(raw) if raw else {},
}


def run_experiment(spec: ExperimentSpec) -> RunRecord:
    """Execute one experiment on the simulated platform."""
    simulate = simulate_cpu_run if spec.platform == "cpu" else simulate_gpu_run
    result = simulate(
        spec.benchmark,
        spec.n_atoms,
        spec.resources,
        precision=spec.precision,
        kspace_error=spec.kspace_error,
        seed=spec.seed,
    )
    if spec.platform == "cpu":
        mpi_fraction = result.mpi_time_fraction
        imbalance = result.mpi_imbalance_fraction
        utilization = result.core_utilization
        mpi_functions = fractions(result.mpi_function_seconds)
        kernels: dict[str, float] = {}
    else:
        mpi_fraction = 0.0
        imbalance = 0.0
        utilization = result.gpu_utilization
        mpi_functions = {}
        kernels = fractions(result.kernel_seconds)

    # Benchmarking protocol: size the run for the power sampler.
    n_steps = timesteps_for_runtime(result.ts_per_s, spec.min_runtime_s)
    runtime_s = n_steps / result.ts_per_s
    sampler = PowerSampler(seed=spec.seed)
    samples = sampler.sample_run(result.power_watts, runtime_s)
    measured_watts = PowerSampler.average(samples)

    record = RunRecord(
        label=spec.label,
        benchmark=spec.benchmark,
        platform=spec.platform,
        size_k=spec.size_k,
        resources=spec.resources,
        mode=spec.mode.value,
        precision=spec.precision,
        kspace_error=spec.kspace_error
        if get_workload(spec.benchmark).has_kspace
        else None,
        n_timesteps=n_steps,
        runtime_s=runtime_s,
        ts_per_s=result.ts_per_s,
        power_watts=measured_watts,
        energy_efficiency=result.ts_per_s / measured_watts,
        mpi_time_fraction=mpi_fraction,
        mpi_imbalance_fraction=imbalance,
        utilization=utilization,
        memory_gb=result.memory_bytes / 1e9,
    )
    if spec.mode is Mode.PROFILING:
        record.task_fractions = fractions(result.task_seconds)
        record.mpi_function_fractions = mpi_functions
        record.kernel_fractions = kernels
    return record
