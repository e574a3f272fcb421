"""Hardware telemetry: measured power sampling with phase attribution.

The paper reports energy efficiency (timesteps/s/W, sampled at 0.5 s).
This package measures power wherever the machine allows and falls back
to a utilization model — loudly labelled — where it does not:

* :mod:`providers <repro.observability.telemetry.providers>` — the
  provider ladder: RAPL ``energy_uj`` counters (measured), /proc/stat
  utilization through :class:`CpuPowerModel` (estimated),
  process-CPU-slope model (modeled).  :func:`detect_provider` resolves
  it once — a requested name, or the first rung whose constructor
  succeeds — and the provider records why it skipped each rung above.
* :mod:`sampler <repro.observability.telemetry.sampler>` — the 0.5 s
  background sampling loop with MIN_RUN_SECONDS enforcement (loud
  warning, never a silent under-sampled series).

* :mod:`attribution <repro.observability.telemetry.attribution>` —
  joins sample intervals with the PR-2 span tracer's timeline to
  attribute joules per phase (Pair, Neigh, Comm, Kspace, checkpoint...).
* :mod:`provenance <repro.observability.telemetry.provenance>` —
  :func:`host_facts`, the one host stamp every record embeds whole
  (the power record's ``platform`` block among them).

The performance model (:mod:`repro.model`) imports the utilization
formula and the sampling methodology from here; nothing here imports the
model.

Entry point: ``python -m repro trace lj --atoms 32768 --power`` samples
the traced run, prints a live readout and the per-phase energy
breakdown, and writes the full record to ``<out>/energy.json``.  TS/s/W
is reported only when the joules are ``measured``.  ``--power NAME`` is
the only way to choose the provider.
"""

from repro.observability.telemetry.attribution import (
    UNTRACKED,
    EnergyAttribution,
    PhaseEnergy,
    attribute_energy,
    render_energy_table,
)
from repro.observability.telemetry.provenance import (
    cgroup_cpu_quota,
    host_facts,
)
from repro.observability.telemetry.providers import (
    PROVIDERS,
    CpuPowerModel,
    DramRaplProvider,
    IntervalSample,
    ModelProvider,
    PowerProvider,
    ProcStatProvider,
    RaplProvider,
    detect_provider,
)
from repro.observability.telemetry.sampler import (
    TelemetrySampler,
    UnderSampledRunWarning,
    reset_under_sample_warnings,
)

__all__ = [
    "IntervalSample",
    "PowerProvider",
    "RaplProvider",
    "DramRaplProvider",
    "ProcStatProvider",
    "ModelProvider",
    "PROVIDERS",
    "detect_provider",
    "CpuPowerModel",
    "TelemetrySampler",
    "UnderSampledRunWarning",
    "reset_under_sample_warnings",
    "EnergyAttribution",
    "PhaseEnergy",
    "attribute_energy",
    "render_energy_table",
    "UNTRACKED",
    "host_facts",
    "cgroup_cpu_quota",
]
