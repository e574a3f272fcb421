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
   ``/proc/stat`` jiffy deltas and turns it into watts through
   :class:`CpuPowerModel`, calibrated for this machine.  Kind:
   ``"estimated"`` (real utilization, modeled watts).
3. :class:`ModelProvider` — the pure fallback: estimates busy
   core-equivalents of *this process* from ``time.process_time()``
   deltas and runs the same calibrated model.  Always available.
   Kind: ``"modeled"``.

:func:`detect_provider` resolves the provider once: a requested name
is built or raises, ``"auto"`` tries each rung's constructor in turn.
The provider it returns carries what was requested and why every rung
above it was skipped, so a record always says which rung produced its
joules and why no better one did.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CpuPowerModel",
    "IntervalSample",
    "PowerProvider",
    "RaplProvider",
    "DramRaplProvider",
    "ProcStatProvider",
    "ModelProvider",
    "PROVIDERS",
    "detect_provider",
]

#: Every provider name, best evidence first.  ``"auto"`` tries all but
#: the last: ``dram`` measures the memory controller alone — a
#: *component* of package power — so it runs only when requested, never
#: silently in place of a node-power reading.
PROVIDERS = ("rapl", "procfs", "model", "dram")

#: Default sysfs root for the RAPL powercap hierarchy.
RAPL_SYSFS_ROOT = "/sys/class/powercap"

#: Default procfs stat file.
PROC_STAT_PATH = "/proc/stat"


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
    #: Set by :func:`detect_provider`: the name asked for (``"auto"``
    #: walks the ladder) and, per rung passed over, why.  A provider
    #: built directly was asked for by name and skipped nothing.
    requested: str | None = None
    skipped: dict[str, str] = {}

    def reset(self) -> None:
        raise NotImplementedError

    def sample(self) -> IntervalSample:
        raise NotImplementedError

    def provenance(self) -> dict:
        """JSON-safe description for benchmark/platform records."""
        return {
            "provider": self.name,
            "kind": self.kind,
            "requested": self.requested or self.name,
            "skipped": dict(self.skipped),
        }


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
    domains: list[RaplDomain] = []
    for entry in sorted(Path(root).iterdir()):
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
    #: What the constructor reports when discovery finds nothing.
    _missing = "no readable intel-rapl package domain under"

    def __init__(
        self,
        root: str | Path = RAPL_SYSFS_ROOT,
        *,
        clock=time.perf_counter,
    ) -> None:
        self.root = Path(root)
        self._clock = clock
        if not self.root.is_dir():
            raise RuntimeError(f"no powercap sysfs at {self.root}")
        self.domains = self._discover(self.root)
        if not self.domains:
            raise RuntimeError(f"{self._missing} {self.root}")
        self._last_uj: list[int] = []
        self._last_t = 0.0
        self.reset()

    @staticmethod
    def _discover(root: str | Path) -> list[RaplDomain]:
        return _discover_rapl_domains(root)

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
        return {**super().provenance(), "domains": [d.label for d in self.domains]}


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
    domains: list[RaplDomain] = []
    for entry in sorted(Path(root).iterdir()):
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
    for a node reading (see :data:`PROVIDERS`).
    """

    name = "dram"
    kind = "measured"
    _missing = "no readable intel-rapl dram subdomain under"

    @staticmethod
    def _discover(root: str | Path) -> list[RaplDomain]:
        return _discover_dram_domains(root)


# ---------------------------------------------------------------------------
# /proc/stat utilization -> CpuPowerModel
# ---------------------------------------------------------------------------
class CpuPowerModel:
    """Socket power = share of TDP proportional to active-core load.

    ``watts(n, util)``: the node idle floor plus each of the ``n`` busy
    cores drawing its per-core share of the socket TDP scaled by its
    utilization (the paper reports per-benchmark physical-core
    utilizations of 24 % for Chute up to 83 % for Rhodopsin).  The
    performance model feeds it the paper's Table 3 nodes; the providers
    below feed it this machine.
    """

    def __init__(
        self, idle_watts: float, tdp_watts: float, cores: int, sockets: int
    ) -> None:
        """``tdp_watts`` and ``cores`` are per socket."""
        self.idle_watts = idle_watts
        self.tdp_watts = tdp_watts
        self.total_cores = cores * sockets
        self.sockets = sockets
        # Reserve ~20% of TDP for the uncore; the rest splits per core.
        self._per_core_watts = 0.8 * tdp_watts / cores

    def watts(self, active_cores: int, utilization: float) -> float:
        if active_cores < 0 or not 0.0 <= utilization <= 1.0:
            raise ValueError("active_cores >= 0 and utilization in [0, 1]")
        active_cores = min(active_cores, self.total_cores)
        draw = self.idle_watts + (
            active_cores * self._per_core_watts * utilization
        )
        cap = self.idle_watts + self.sockets * self.tdp_watts
        return min(draw, cap)


def _local_power_model(cores: int) -> CpuPowerModel:
    """The utilization->watts model for *this* machine, one socket.

    A commodity dev box or CI container has no known TDP, so we assume a
    mid-range desktop profile — 12.5 W active draw per core over a
    10 W idle floor.  The point is honest *relative* attribution, with
    the provenance ``kind`` flagging that the watts are model-derived
    and recording ``idle_watts``/``tdp_watts``/``cores``.
    """
    # 0.8 * tdp / cores == 12.5 W/core.
    return CpuPowerModel(10.0, cores * 12.5 / 0.8, cores, 1)


def _model_fields(model: CpuPowerModel) -> dict:
    return {
        "cores": model.total_cores,
        "idle_watts": model.idle_watts,
        "tdp_watts": model.tdp_watts,
    }


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
        self.model = _local_power_model(len(baseline))
        self._last = baseline
        self._last_t = self._clock()

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
        watts = self.model.watts(self.model.total_cores, utilization)
        sample = IntervalSample(self._last_t, now, watts * (now - self._last_t))
        self._last_t = now
        return sample

    def provenance(self) -> dict:
        return {**super().provenance(), **_model_fields(self.model)}


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
        clock=time.perf_counter,
        cpu_clock=time.process_time,
    ) -> None:
        self.model = _local_power_model(os.cpu_count() or 1)
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._last_t = self._clock()
        self._last_cpu = self._cpu_clock()

    def reset(self) -> None:
        self._last_t = self._clock()
        self._last_cpu = self._cpu_clock()

    def sample(self) -> IntervalSample:
        now = self._clock()
        cpu = self._cpu_clock()
        dt = now - self._last_t
        busy_cores = (cpu - self._last_cpu) / dt if dt > 0 else 0.0
        cores = self.model.total_cores
        utilization = min(1.0, busy_cores / cores) if cores else 0.0
        watts = self.model.watts(cores, utilization)
        sample = IntervalSample(self._last_t, now, watts * dt)
        self._last_t = now
        self._last_cpu = cpu
        return sample

    def provenance(self) -> dict:
        return {**super().provenance(), **_model_fields(self.model)}


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------
def detect_provider(
    requested: str = "auto",
    *,
    rapl_root: str | Path = RAPL_SYSFS_ROOT,
    stat_path: str | Path = PROC_STAT_PATH,
    clock=time.perf_counter,
) -> PowerProvider:
    """The one provider a run samples: ``requested`` by name, or the ladder.

    A named provider that cannot be constructed raises (silently
    degrading an explicit request is exactly the synthetic-numbers trap
    the Gromacs paper warns about).  ``"auto"`` tries rapl -> procfs ->
    model and always succeeds because the model rung has no
    preconditions; each rung's constructor says why it is unavailable,
    and the returned provider keeps those reasons in ``skipped``.
    """
    constructors = {
        "rapl": lambda: RaplProvider(rapl_root, clock=clock),
        "procfs": lambda: ProcStatProvider(stat_path, clock=clock),
        "model": lambda: ModelProvider(clock=clock),
        "dram": lambda: DramRaplProvider(rapl_root, clock=clock),
    }
    skipped: dict[str, str] = {}
    if requested != "auto":
        if requested not in constructors:
            raise ValueError(
                f"unknown power provider {requested!r}; "
                f"expected 'auto' or one of {PROVIDERS}"
            )
        provider = constructors[requested]()
    else:
        for rung in PROVIDERS[:-1]:
            try:
                provider = constructors[rung]()
                break
            except RuntimeError as exc:
                skipped[rung] = str(exc)
    provider.requested = requested
    provider.skipped = skipped
    return provider
