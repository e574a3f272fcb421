"""Section 10's headline turnaround numbers.

"Rhodopsin with 2 million atoms on a single CPU node runs at 2 ns/day
on current commodity hardware.  Our GPU node with eight devices reached
2.8 ns/day" — at the benchmark's 2 fs timestep.  Also the ~30 % average
per-GPU utilization quoted for 2-million-atom systems.
"""

from __future__ import annotations

from repro.figures.base import FigureData
from repro.figures.campaign import cached_run
from repro.model.framework.efficiency import ns_per_day
from repro.model.framework.experiment import ExperimentSpec
from repro.model.framework.tables import render_table
from repro.model.workloads import get_workload

__all__ = ["generate"]


def generate() -> FigureData:
    """``series`` holds cpu/gpu ns-per-day and the GPU utilization."""
    timestep_fs = get_workload("rhodo").timestep_fs
    cpu = cached_run(ExperimentSpec("rhodo", "cpu", 2048, 64))
    gpu = cached_run(ExperimentSpec("rhodo", "gpu", 2048, 8))
    to_ns_day = ns_per_day(1.0, timestep_fs)  # ns/day at one TS/s
    series = {
        "cpu_ns_per_day": cpu.ts_per_s * to_ns_day,
        "gpu_ns_per_day": gpu.ts_per_s * to_ns_day,
        "gpu_utilization": gpu.utilization,
        "cpu_ts_per_s": cpu.ts_per_s,
        "gpu_ts_per_s": gpu.ts_per_s,
    }

    def _render(data: FigureData) -> str:
        rows = [
            ["CPU node (64 ranks)", f"{data.series['cpu_ts_per_s']:.2f}",
             f"{data.series['cpu_ns_per_day']:.2f}", "-"],
            ["GPU node (8 x V100)", f"{data.series['gpu_ts_per_s']:.2f}",
             f"{data.series['gpu_ns_per_day']:.2f}",
             f"{100 * data.series['gpu_utilization']:.0f}%"],
        ]
        return render_table(
            ["platform", "TS/s", "ns/day", "avg GPU util"], rows
        )

    return FigureData(
        figure_id="Section 10",
        title="Rhodopsin 2M-atom headline turnaround",
        series=series,
        renderer=_render,
    )
