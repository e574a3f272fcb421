"""Observability layer: structured tracing, metrics, rank timelines.

The paper's whole contribution is measurement; this package gives the
reproduction the same power over itself:

* :mod:`repro.observability.tracer` — a low-overhead span tracer with a
  preallocated ring buffer.  The engine instruments every timestep
  phase, kernel-backend call, neighbor rebuild and k-space stage;
  export is Chrome trace-event JSON (``chrome://tracing`` / Perfetto)
  or a flamegraph-style text report.  Disabled by default and free when
  disabled (the :data:`NULL_TRACER` singleton); enable per run with
  ``Simulation.attach_tracer(...)`` or globally with ``REPRO_TRACE=1``.
* :mod:`repro.observability.metrics` — a counters/gauges/histograms
  registry fed by the engine's operation counts, neighbor cadence,
  energy drift, SHAKE iterations and kernel scratch growth, with JSONL
  snapshot export.
* :mod:`repro.observability.timeline` — per-rank timelines for the
  simulated MPI layer, so Figure 4's imbalance is computed from
  recorded spans rather than only the analytic model.
* :mod:`repro.observability.timing` — LAMMPS-style timing tables and
  the trace-vs-timer agreement check.
* :mod:`repro.observability.telemetry` — measured hardware power
  sampling (RAPL / procfs / calibrated-model provider ladder) at the
  paper's 0.5 s cadence, with per-phase joule attribution through the
  span tracer and machine provenance for the benchmark records.

Entry points: ``python -m repro trace lj --steps 50`` records one short
experiment and writes the trace, metrics snapshot and timing table;
``python -m repro power lj`` adds the measured per-phase energy
breakdown and TS/s/W.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.telemetry import (
    EnergyAttribution,
    IntervalSample,
    TelemetrySampler,
    attribute_energy,
    detect_provider,
    platform_provenance,
    render_energy_table,
)
from repro.observability.timeline import RankSpan, RankTimeline
from repro.observability.timing import (
    render_agreement,
    render_span_table,
    render_task_table,
    trace_timer_agreement,
)
from repro.observability.tracer import (
    NULL_TRACER,
    TRACE_ENV_VAR,
    NullTracer,
    SpanRecord,
    Tracer,
    resolve_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_ENV_VAR",
    "SpanRecord",
    "resolve_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RankSpan",
    "RankTimeline",
    "render_task_table",
    "render_span_table",
    "render_agreement",
    "trace_timer_agreement",
    "TelemetrySampler",
    "IntervalSample",
    "EnergyAttribution",
    "attribute_energy",
    "render_energy_table",
    "detect_provider",
    "platform_provenance",
]
