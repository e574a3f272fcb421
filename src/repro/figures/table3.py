"""Table 3 — "CPU and GPU Instances Description"."""

from __future__ import annotations

from repro.figures.base import FigureData
from repro.model.framework.tables import render_table
from repro.model.platforms.instances import CPU_INSTANCE, GPU_INSTANCE

__all__ = ["generate"]


def generate() -> FigureData:
    """Instance spec grid matching the paper's Table 3 sections."""
    cpu, gpu = CPU_INSTANCE, GPU_INSTANCE
    cpu_rows = [
        ("CPU", cpu.cpu.model, gpu.cpu.model),
        ("Cores", cpu.cpu.cores, gpu.cpu.cores),
        ("Threads", cpu.cpu.threads, gpu.cpu.threads),
        (
            "Freq. (turbo)",
            f"{cpu.cpu.frequency_ghz} GHz ({cpu.cpu.turbo_ghz} GHz)",
            f"{gpu.cpu.frequency_ghz} GHz ({gpu.cpu.turbo_ghz} GHz)",
        ),
        ("L1 Cache", f"{cpu.cpu.l1_kb_per_core} KB/core", f"{gpu.cpu.l1_kb_per_core} KB/core"),
        ("L2 Cache", f"{cpu.cpu.l2_mb_per_core} MB/core", f"{gpu.cpu.l2_mb_per_core} MB/core"),
        ("L3 Cache", f"{cpu.cpu.l3_mb_shared} MB shared", f"{gpu.cpu.l3_mb_shared} MB shared"),
        ("Tech. Node", f"{cpu.cpu.tech_node_nm} nm", f"{gpu.cpu.tech_node_nm} nm"),
        ("TDP", f"{cpu.cpu.tdp_watts:.0f} W", f"{gpu.cpu.tdp_watts:.0f} W"),
    ]
    device = gpu.gpu
    assert device is not None
    gpu_rows = [
        ("GPU", "-", device.model),
        ("SM", "-", device.sms),
        ("Global Mem.", "-", f"{device.global_memory_gb} GB HBM"),
        ("L2 Cache", "-", f"{device.l2_mb_shared} MB shared"),
        ("L1 Cache", "-", f"{device.l1_kb_per_sm} KB/SM"),
        ("Frequency", "-", f"{device.frequency_ghz} GHz"),
        ("Tech. Node", "-", f"{device.tech_node_nm} nm"),
        ("TDP", "-", f"{device.tdp_watts:.0f} W"),
    ]
    instance_rows = [
        ("Sockets", cpu.sockets, gpu.sockets),
        ("Memory", f"{cpu.memory_gb} GB DDR4", f"{gpu.memory_gb} GB DDR4"),
        ("OS", cpu.os, gpu.os),
        ("Kernel", cpu.kernel, gpu.kernel),
    ]
    series = {
        "cpu_specs": cpu_rows,
        "gpu_specs": gpu_rows,
        "instance_specs": instance_rows,
    }

    def _render(data: FigureData) -> str:
        headers = ["Spec", "CPU Inst.", "GPU Inst."]
        blocks = []
        for section, rows in data.series.items():
            blocks.append(render_table(headers, rows, title=f"[{section}]"))
        return "\n\n".join(blocks)

    return FigureData(
        figure_id="Table 3",
        title="CPU and GPU instance descriptions",
        series=series,
        renderer=_render,
    )
