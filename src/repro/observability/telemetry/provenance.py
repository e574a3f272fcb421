"""Machine provenance for benchmark records.

Energy-efficiency numbers are only comparable across machines when the
record says what the machine *was*: the kernel it ran (scheduler and
powercap behavior change across versions), whether a cgroup CPU quota
was throttling the run (ubiquitous in CI containers, invisible to
``os.cpu_count``), and whether the joules came from a hardware counter
or a model.  :func:`platform_provenance` bundles those for the
``repro power --json`` record.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

from repro.observability.telemetry.providers import (
    PROVIDER_ENV_VAR,
    PROVIDER_ORDER,
    RaplProvider,
    detect_provider,
    provider_diagnostics,
)

__all__ = [
    "kernel_version",
    "cgroup_cpu_quota",
    "platform_provenance",
]

#: cgroup v2 unified quota file: "<quota_us> <period_us>" or "max ...".
CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"

#: cgroup v1 CFS quota/period pair (-1 quota means unlimited).
CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def kernel_version() -> str:
    """The running kernel release (e.g. ``6.8.0-45-generic``)."""
    return platform.release()


def cgroup_cpu_quota(
    *,
    v2_path: str | Path = CGROUP_V2_CPU_MAX,
    v1_quota_path: str | Path = CGROUP_V1_QUOTA,
    v1_period_path: str | Path = CGROUP_V1_PERIOD,
) -> float | None:
    """Effective CPU quota in cores, or ``None`` when unlimited/unknown.

    Reads the cgroup v2 ``cpu.max`` file first, then the v1
    ``cpu.cfs_quota_us``/``cpu.cfs_period_us`` pair.  A container
    pinned to "200000 100000" reports 2.0 — the number that explains
    why its TS/s/W differs from bare metal with the same core count.
    """
    v2 = Path(v2_path)
    try:
        fields = v2.read_text().split()
        if fields and fields[0] != "max":
            quota = int(fields[0])
            period = int(fields[1]) if len(fields) > 1 else 100_000
            if quota > 0 and period > 0:
                return quota / period
        if fields:
            return None  # explicit "max": unlimited
    except (OSError, ValueError, IndexError):
        pass
    try:
        quota = int(Path(v1_quota_path).read_text().strip())
        period = int(Path(v1_period_path).read_text().strip())
        if quota > 0 and period > 0:
            return quota / period
    except (OSError, ValueError):
        pass
    return None


def platform_provenance() -> dict:
    """The telemetry block a power record's ``platform`` carries."""
    provider = detect_provider()
    return {
        "kernel_version": kernel_version(),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota_cores": cgroup_cpu_quota(),
        "rapl_available": RaplProvider.available(),
        "power_provider": provider.provenance(),
        "power_provider_order": list(PROVIDER_ORDER),
        "power_provider_forced": os.environ.get(PROVIDER_ENV_VAR) or None,
        "power_provider_diagnostics": provider_diagnostics(),
    }
