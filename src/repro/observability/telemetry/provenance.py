"""What a run ran on: the one host stamp every record embeds whole.

A number from another machine is only comparable, or explicable, when
its record says what the machine *was*.  :func:`host_facts` is the one
collector of those facts: the energy report, the campaign record and
the certification manifest each embed its dict verbatim, so no two
records can disagree about which facts a host stamp carries.

Two kinds of fact live in the block.  Some explain a *number*: the
kernel (scheduler and powercap behavior change across versions), the
CPU count and whether a cgroup CPU quota was throttling the run
(ubiquitous in CI containers, invisible to ``os.cpu_count``).  Others
decide a *digest*: numpy picks its float64 ``exp`` by CPU feature,
glibc picks ``exp``/``pow``/``sin``/``cos`` variants by CPU, and the C
unit's bits are fixed by its compiler and flags.  ``host_class`` is a
digest of exactly those fields (:data:`HOST_CLASS_FIELDS`), and
``repro certify`` names the ones that differ when a bitwise replay
crosses host classes, instead of blaming the run directory.  The CPU
the C unit is built for (``cc_target``) explains its speed, not its
bits — no flag of the unit lets the target change a value — so it
stays out of the class.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as _simd
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _simd

__all__ = [
    "HOST_CLASS_FIELDS",
    "cgroup_cpu_quota",
    "host_differences",
    "host_facts",
]

#: cgroup v2 unified quota file: "<quota_us> <period_us>" or "max ...".
CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"

#: cgroup v1 CFS quota/period pair (-1 quota means unlimited).
CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"

#: The host facts a digest head depends on; ``host_class`` hashes them.
HOST_CLASS_FIELDS = (
    "machine",
    "numpy",
    "numpy_simd_baseline",
    "numpy_simd_dispatch",
    "libc",
    "compiler",
    "cflags",
)


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


def host_facts() -> dict:
    """The host block every record embeds whole (JSON-safe).

    Reading the compiler runs ``cc --version`` and the target probe
    (a ``-###`` dry run) and nothing else: the C unit is neither built
    nor smoke-tested, so the stamp is the same whether or not the
    ``compiled`` backend can run here.
    """
    # Not at import: loading the service must not load the C unit.
    from repro.md.kernels import _cc_impl

    cc = _cc_impl._find_compiler()
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "platform": platform.platform(),
        "kernel_version": platform.release(),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota_cores": cgroup_cpu_quota(),
        "numpy_simd_baseline": list(_simd.__cpu_baseline__),
        # The dispatch targets numpy built in that this CPU enables.
        "numpy_simd_dispatch": [
            name for name in _simd.__cpu_dispatch__
            if _simd.__cpu_features__.get(name)
        ],
        "libc": " ".join(platform.libc_ver()).strip() or None,
        "compiler": _cc_impl.compiler_id(cc) if cc else None,
        "cflags": list(_cc_impl.cflags(cc) if cc else _cc_impl._CFLAGS),
        "cc_target": _cc_impl.target(cc) if cc else None,
    }
    keyed = json.dumps(
        {name: facts[name] for name in HOST_CLASS_FIELDS}, sort_keys=True
    )
    facts["host_class"] = hashlib.sha256(keyed.encode()).hexdigest()[:16]
    return facts


def host_differences(recorded: dict, replayed: dict) -> list[str]:
    """The :data:`HOST_CLASS_FIELDS` two host blocks both carry and
    disagree on (a partial block compares on the fields it has)."""
    return [
        name for name in HOST_CLASS_FIELDS
        if name in recorded and name in replayed
        and recorded[name] != replayed[name]
    ]
