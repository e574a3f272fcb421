"""Power providers: where the watts actually come from.

The paper samples node power with ``powerstat`` (RAPL underneath) and
``nvidia-smi``; the Gromacs energy-efficiency paper in PAPERS.md warns
how misleading *modeled* power numbers are.  This module therefore
offers a small provider ladder, best evidence first:

1. :class:`RaplProvider` — reads the Intel RAPL energy counters under
   ``/sys/class/powercap/intel-rapl*`` directly.  These are cumulative
   microjoule counters that wrap at ``max_energy_range_uj``; the
   provider sums the top-level package domains (subdomains like
   ``intel-rapl:0:0`` are *parts of* their package and would double
   count) and handles wraparound.  Kind: ``"measured"``.
2. :class:`ProcStatProvider` — derives per-core utilization from
   ``/proc/stat`` jiffy deltas and feeds it through the existing
   :class:`~repro.platforms.power.CpuPowerModel` over a locally
   calibrated instance spec.  Kind: ``"estimated"`` (real utilization,
   modeled watts).
3. :class:`ModelProvider` — the pure fallback: estimates busy
   core-equivalents of *this process* from ``time.process_time()``
   deltas and runs the same calibrated model.  Always available.
   Kind: ``"modeled"``.

:func:`detect_provider` walks the ladder (or honors
``$REPRO_POWER_PROVIDER``) and every sample carries its provider's
provenance, so a record always says which rung produced its joules.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

from repro.platforms.instances import CpuSpec, InstanceSpec
from repro.platforms.power import CpuPowerModel

__all__ = [
    "IntervalSample",
    "PowerProvider",
    "RaplProvider",
    "DramRaplProvider",
    "ProcStatProvider",
    "ModelProvider",
    "PROVIDER_ENV_VAR",
    "PROVIDER_ORDER",
    "EXPLICIT_PROVIDERS",
    "detect_provider",
    "provider_diagnostics",
    "local_instance_spec",
]

#: Environment override: ``rapl``, ``dram``, ``procfs`` or ``model``
#: forces one provider (the CI telemetry smoke forces ``model`` so the
#: job runs identically on bare metal and in containers without
#: powercap).
PROVIDER_ENV_VAR = "REPRO_POWER_PROVIDER"

#: Auto-detection order, best evidence first.
PROVIDER_ORDER = ("rapl", "procfs", "model")

#: Providers that are valid only when explicitly requested.  ``dram``
#: measures the memory controller alone — a *component* of package
#: power — so auto-detection must never silently substitute it for a
#: node-power reading.
EXPLICIT_PROVIDERS = ("dram",)

#: Default sysfs root for the RAPL powercap hierarchy.
RAPL_SYSFS_ROOT = "/sys/class/powercap"

#: Default procfs stat file.
PROC_STAT_PATH = "/proc/stat"

#: Calibration overrides for the utilization->watts model on machines
#: whose idle floor / per-core draw is known.
IDLE_WATTS_ENV_VAR = "REPRO_POWER_IDLE_WATTS"
TDP_WATTS_ENV_VAR = "REPRO_POWER_TDP_WATTS"


@dataclass(frozen=True)
class IntervalSample:
    """Energy drawn over one sampling interval ``[t_start, t_end]``."""

    t_start: float
    t_end: float
    joules: float

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start

    @property
    def watts(self) -> float:
        dt = self.duration_s
        return self.joules / dt if dt > 0 else 0.0


class PowerProvider:
    """Interface: ``reset()`` takes a baseline, ``sample()`` an interval.

    ``sample()`` returns the energy drawn since the previous call (or
    since ``reset()``), stamped with the provider's clock.  Providers
    must share the tracer's clock (``time.perf_counter`` by default) so
    that sample intervals and span timelines live on one timebase —
    that alignment is what makes per-phase attribution possible.
    """

    name: str = "abstract"
    #: ``"measured"`` (hardware counter), ``"estimated"`` (measured
    #: utilization through the model) or ``"modeled"`` (pure model).
    kind: str = "abstract"

    def reset(self) -> None:
        raise NotImplementedError

    def sample(self) -> IntervalSample:
        raise NotImplementedError

    def provenance(self) -> dict:
        """JSON-safe description for benchmark/platform records."""
        return {"provider": self.name, "kind": self.kind}


# ---------------------------------------------------------------------------
# RAPL
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RaplDomain:
    """One top-level RAPL package domain (``intel-rapl:<n>``)."""

    path: Path
    label: str
    max_energy_range_uj: int

    def read_energy_uj(self) -> int:
        return int((self.path / "energy_uj").read_text().strip())


def _discover_rapl_domains(root: str | Path) -> list[RaplDomain]:
    """Readable top-level package domains under ``root``.

    Only ``intel-rapl:<n>`` (no second colon) qualifies: subdomains
    (``intel-rapl:<n>:<m>``, e.g. core/uncore/dram) are constituents of
    their package counter and summing them would double count.
    """
    root = Path(root)
    domains: list[RaplDomain] = []
    if not root.is_dir():
        return domains
    for entry in sorted(root.iterdir()):
        name = entry.name
        if not name.startswith("intel-rapl:") or name.count(":") != 1:
            continue
        try:
            energy = entry / "energy_uj"
            int(energy.read_text().strip())  # readability probe
            max_range = int((entry / "max_energy_range_uj").read_text().strip())
            label = (entry / "name").read_text().strip() if (entry / "name").exists() else name
        except (OSError, ValueError):
            continue
        domains.append(RaplDomain(entry, label, max_range))
    return domains


class RaplProvider(PowerProvider):
    """Measured package energy from the powercap ``energy_uj`` counters."""

    name = "rapl"
    kind = "measured"
    #: What the discovery hook should report when it finds nothing.
    _missing = "no readable intel-rapl package domain under"

    def __init__(
        self,
        root: str | Path = RAPL_SYSFS_ROOT,
        *,
        clock=time.perf_counter,
    ) -> None:
        self.root = Path(root)
        self._clock = clock
        self.domains = self._discover(self.root)
        if not self.domains:
            raise RuntimeError(self.diagnostic(self.root))
        self._last_uj: list[int] = []
        self._last_t = 0.0
        self.reset()

    @staticmethod
    def _discover(root: str | Path) -> list[RaplDomain]:
        return _discover_rapl_domains(root)

    @classmethod
    def available(cls, root: str | Path = RAPL_SYSFS_ROOT) -> bool:
        return bool(cls._discover(root))

    @classmethod
    def diagnostic(cls, root: str | Path = RAPL_SYSFS_ROOT) -> str:
        root = Path(root)
        if not root.is_dir():
            return f"no powercap sysfs at {root}"
        if not cls._discover(root):
            return f"{cls._missing} {root}"
        return "available"

    def reset(self) -> None:
        self._last_uj = [d.read_energy_uj() for d in self.domains]
        self._last_t = self._clock()

    def sample(self) -> IntervalSample:
        now = self._clock()
        current = [d.read_energy_uj() for d in self.domains]
        delta_uj = 0
        for domain, prev, cur in zip(self.domains, self._last_uj, current):
            step = cur - prev
            if step < 0:  # counter wrapped at max_energy_range_uj
                step += domain.max_energy_range_uj
            delta_uj += step
        sample = IntervalSample(self._last_t, now, delta_uj / 1e6)
        self._last_uj = current
        self._last_t = now
        return sample

    def provenance(self) -> dict:
        return {
            "provider": self.name,
            "kind": self.kind,
            "domains": [d.label for d in self.domains],
        }


def _discover_dram_domains(root: str | Path) -> list[RaplDomain]:
    """Readable DRAM subdomains (``intel-rapl:<n>:<m>`` named ``dram``).

    Powercap lists subdomains flat next to their packages; the ``name``
    attribute (not the position) says which component a subdomain
    meters, so every two-colon entry is probed and only the memory
    controllers kept.  One per package on multi-socket nodes — they sum
    the same way package domains do, and each carries its own
    ``max_energy_range_uj`` (typically far smaller than the package's,
    so wraps are *more* frequent, not less).
    """
    root = Path(root)
    domains: list[RaplDomain] = []
    if not root.is_dir():
        return domains
    for entry in sorted(root.iterdir()):
        name = entry.name
        if not name.startswith("intel-rapl:") or name.count(":") != 2:
            continue
        try:
            if (entry / "name").read_text().strip() != "dram":
                continue
            int((entry / "energy_uj").read_text().strip())  # readability probe
            max_range = int((entry / "max_energy_range_uj").read_text().strip())
        except (OSError, ValueError):
            continue
        package = name.rsplit(":", 1)[0]
        domains.append(RaplDomain(entry, f"{package}/dram", max_range))
    return domains


class DramRaplProvider(RaplProvider):
    """Measured memory-controller energy from the RAPL DRAM subdomains.

    Same counter semantics as :class:`RaplProvider` (cumulative
    microjoules, wrap at ``max_energy_range_uj``) but scoped to the
    DRAM plane — the quantity the paper's memory-bound workloads
    (``eam``, ``rhodo``) move.  Explicit-request-only: DRAM power is a
    component of package power, so auto-detection never substitutes it
    for a node reading (see :data:`EXPLICIT_PROVIDERS`).
    """

    name = "dram"
    kind = "measured"
    _missing = "no readable intel-rapl dram subdomain under"

    @staticmethod
    def _discover(root: str | Path) -> list[RaplDomain]:
        return _discover_dram_domains(root)


# ---------------------------------------------------------------------------
# /proc/stat utilization -> calibrated CpuPowerModel
# ---------------------------------------------------------------------------
def local_instance_spec(n_cores: int | None = None) -> InstanceSpec:
    """A calibrated :class:`InstanceSpec` describing *this* machine.

    The paper's Table 3 nodes have known TDPs; a commodity dev box or CI
    container does not, so we assume a mid-range desktop profile —
    ~12.5 W active draw per core (0.8 x TDP / cores with TDP sized to
    match) over a 10 W idle floor — and let ``$REPRO_POWER_IDLE_WATTS``
    / ``$REPRO_POWER_TDP_WATTS`` recalibrate when the numbers are known.
    The point of this spec is honest *relative* attribution, with the
    provenance field flagging that the watts are model-derived.
    """
    cores = int(n_cores or os.cpu_count() or 1)
    idle = float(os.environ.get(IDLE_WATTS_ENV_VAR, 10.0))
    # 0.8 * tdp / cores == 12.5 W/core unless overridden.
    tdp = float(os.environ.get(TDP_WATTS_ENV_VAR, cores * 12.5 / 0.8))
    cpu = CpuSpec(
        model=platform.processor() or platform.machine() or "local-cpu",
        cores=cores,
        threads=cores,
        frequency_ghz=2.5,
        turbo_ghz=3.5,
        l1_kb_per_core=64,
        l2_mb_per_core=1.0,
        l3_mb_shared=16.0,
        tech_node_nm=10,
        tdp_watts=tdp,
    )
    return InstanceSpec(
        name="local-node",
        cpu=cpu,
        sockets=1,
        memory_gb=16,
        os=platform.system(),
        kernel=platform.release(),
        idle_watts=idle,
    )


def _parse_cpu_times(text: str) -> dict[str, tuple[int, int]]:
    """``cpuN -> (busy_jiffies, total_jiffies)`` from /proc/stat text."""
    out: dict[str, tuple[int, int]] = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or not fields[0].startswith("cpu"):
            continue
        if fields[0] == "cpu":  # aggregate line; per-core rows follow
            continue
        values = [int(v) for v in fields[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice]
        idle = sum(values[3:5]) if len(values) >= 5 else values[3]
        total = sum(values[:8]) if len(values) >= 8 else sum(values)
        out[fields[0]] = (total - idle, total)
    return out


class ProcStatProvider(PowerProvider):
    """Per-core utilization from /proc/stat through the power model."""

    name = "procfs"
    kind = "estimated"

    def __init__(
        self,
        stat_path: str | Path = PROC_STAT_PATH,
        *,
        instance: InstanceSpec | None = None,
        clock=time.perf_counter,
    ) -> None:
        self.stat_path = Path(stat_path)
        self._clock = clock
        try:
            baseline = _parse_cpu_times(self.stat_path.read_text())
        except OSError as exc:
            raise RuntimeError(f"cannot read {self.stat_path}: {exc}") from exc
        if not baseline:
            raise RuntimeError(f"no per-core cpu lines in {self.stat_path}")
        self.instance = instance or local_instance_spec(len(baseline))
        self.model = CpuPowerModel(self.instance)
        self._last = baseline
        self._last_t = self._clock()

    @staticmethod
    def available(stat_path: str | Path = PROC_STAT_PATH) -> bool:
        try:
            return bool(_parse_cpu_times(Path(stat_path).read_text()))
        except OSError:
            return False

    @staticmethod
    def diagnostic(stat_path: str | Path = PROC_STAT_PATH) -> str:
        path = Path(stat_path)
        try:
            text = path.read_text()
        except OSError as exc:
            return f"cannot read {path}: {exc}"
        if not _parse_cpu_times(text):
            return f"no per-core cpu lines in {path}"
        return "available"

    def reset(self) -> None:
        self._last = _parse_cpu_times(self.stat_path.read_text())
        self._last_t = self._clock()

    def utilization(self) -> float:
        """Mean per-core busy fraction since the previous sample.

        Side-effect free with respect to the wall clock only; advances
        the jiffy baseline like :meth:`sample` does.
        """
        current = _parse_cpu_times(self.stat_path.read_text())
        fractions = []
        for cpu, (busy, total) in current.items():
            busy0, total0 = self._last.get(cpu, (busy, total))
            dt = total - total0
            fractions.append((busy - busy0) / dt if dt > 0 else 0.0)
        self._last = current
        return min(1.0, max(0.0, sum(fractions) / len(fractions))) if fractions else 0.0

    def sample(self) -> IntervalSample:
        now = self._clock()
        utilization = self.utilization()
        watts = self.model.watts(self.instance.total_cores, utilization)
        sample = IntervalSample(self._last_t, now, watts * (now - self._last_t))
        self._last_t = now
        return sample

    def provenance(self) -> dict:
        return {
            "provider": self.name,
            "kind": self.kind,
            "cores": self.instance.total_cores,
            "idle_watts": self.instance.idle_watts,
            "tdp_watts": self.instance.cpu.tdp_watts,
        }


# ---------------------------------------------------------------------------
# Pure-model fallback
# ---------------------------------------------------------------------------
class ModelProvider(PowerProvider):
    """Calibrated model fed by this process's own CPU-time slope.

    ``process_time()`` delta over wall delta is the busy-core-equivalent
    count of the Python process (workers included once they report via
    shared memory are *not* visible here — the estimate is a floor).
    Always available; the last rung of the ladder.
    """

    name = "model"
    kind = "modeled"

    def __init__(
        self,
        *,
        instance: InstanceSpec | None = None,
        clock=time.perf_counter,
        cpu_clock=time.process_time,
    ) -> None:
        self.instance = instance or local_instance_spec()
        self.model = CpuPowerModel(self.instance)
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._last_t = self._clock()
        self._last_cpu = self._cpu_clock()

    @staticmethod
    def available() -> bool:
        return True

    @staticmethod
    def diagnostic() -> str:
        return "available (always)"

    def reset(self) -> None:
        self._last_t = self._clock()
        self._last_cpu = self._cpu_clock()

    def sample(self) -> IntervalSample:
        now = self._clock()
        cpu = self._cpu_clock()
        dt = now - self._last_t
        busy_cores = (cpu - self._last_cpu) / dt if dt > 0 else 0.0
        cores = self.instance.total_cores
        utilization = min(1.0, busy_cores / cores) if cores else 0.0
        watts = self.model.watts(cores, utilization)
        sample = IntervalSample(self._last_t, now, watts * dt)
        self._last_t = now
        self._last_cpu = cpu
        return sample

    def provenance(self) -> dict:
        return {
            "provider": self.name,
            "kind": self.kind,
            "cores": self.instance.total_cores,
            "idle_watts": self.instance.idle_watts,
            "tdp_watts": self.instance.cpu.tdp_watts,
        }


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------
def provider_diagnostics(
    *,
    rapl_root: str | Path = RAPL_SYSFS_ROOT,
    stat_path: str | Path = PROC_STAT_PATH,
) -> dict[str, str]:
    """Availability (or the reason for unavailability) per provider."""
    return {
        "rapl": RaplProvider.diagnostic(rapl_root),
        "dram": DramRaplProvider.diagnostic(rapl_root),
        "procfs": ProcStatProvider.diagnostic(stat_path),
        "model": ModelProvider.diagnostic(),
    }


def detect_provider(
    requested: str | None = None,
    *,
    rapl_root: str | Path = RAPL_SYSFS_ROOT,
    stat_path: str | Path = PROC_STAT_PATH,
    clock=time.perf_counter,
) -> PowerProvider:
    """Best available provider: request > ``$REPRO_POWER_PROVIDER`` > ladder.

    An explicitly requested provider that cannot be constructed raises
    (silently degrading an explicit request is exactly the synthetic-
    numbers trap the Gromacs paper warns about); auto-detection walks
    rapl -> procfs -> model and always succeeds because the model rung
    has no preconditions.  ``dram`` is valid only as an explicit
    request — it meters one component, never the node.
    """
    requested = requested or os.environ.get(PROVIDER_ENV_VAR) or None
    if requested is not None:
        known = PROVIDER_ORDER + EXPLICIT_PROVIDERS
        if requested not in known:
            raise ValueError(
                f"unknown power provider {requested!r}; "
                f"expected one of {known}"
            )
        if requested == "rapl":
            return RaplProvider(rapl_root, clock=clock)
        if requested == "dram":
            return DramRaplProvider(rapl_root, clock=clock)
        if requested == "procfs":
            return ProcStatProvider(stat_path, clock=clock)
        return ModelProvider(clock=clock)
    if RaplProvider.available(rapl_root):
        return RaplProvider(rapl_root, clock=clock)
    if ProcStatProvider.available(stat_path):
        return ProcStatProvider(stat_path, clock=clock)
    return ModelProvider(clock=clock)
