"""One versioned record envelope for every record the package writes.

Two producers write records: ``python -m repro power --json`` and the
campaign orchestrator.  The common provenance facts — which backend
ran, which precision modes, where the energy numbers came from, what
platform — are defined **once**, here:

* :func:`platform_info` — the interpreter/host stamp every record
  carries;
* :func:`make_report` — build a validated record: the shared envelope
  plus the producer's own payload keys merged at top level;
* :func:`validate_report` — structural validation of the envelope.

The envelope, version 2::

    schema       "repro-bench-report/2"
    kind         power | campaign
    created_unix epoch seconds (> 0)
    platform     {python, numpy, machine, system, ...extras}
    backend      {requested, resolved}     (names or lists of names)
    precision    "double" | [...modes]
    energy       {provider, kind}          provenance of any joules

Payload keys merge beside the envelope and may never shadow it.
"""

from __future__ import annotations

import json
import platform as _platform
import time
from pathlib import Path

import numpy as np

from repro.md.precision import PRECISIONS as _MODES

__all__ = [
    "SCHEMA",
    "KINDS",
    "PRECISIONS",
    "ENERGY_KINDS",
    "ReportError",
    "energy_provenance",
    "platform_info",
    "make_report",
    "validate_report",
    "load_report",
]

SCHEMA = "repro-bench-report/2"

#: One per producer; ``campaign`` is the merged sweep record.
KINDS = ("power", "campaign")

PRECISIONS = tuple(mode.value for mode in _MODES)

#: Where a record's energy numbers come from: hardware counters
#: (``measured``), /proc/stat utilization scaling (``estimated``), the
#: calibrated model (``modeled``), or nothing — the host exposes no
#: counters and the run did not model them (``unavailable``).
ENERGY_KINDS = ("measured", "estimated", "modeled", "unavailable")

#: The envelope fields a payload may never shadow.
ENVELOPE_FIELDS = (
    "schema",
    "kind",
    "created_unix",
    "platform",
    "backend",
    "precision",
    "energy",
)

_PLATFORM_REQUIRED = ("python", "numpy", "machine", "system")


class ReportError(ValueError):
    """A record does not satisfy the ``repro-bench-report/2`` envelope."""


def energy_provenance() -> dict:
    """The envelope ``energy`` block for this host's active provider."""
    try:
        from repro.observability.telemetry.providers import detect_provider

        provider = detect_provider()
        return {"provider": provider.name, "kind": provider.kind}
    except Exception:
        return {"provider": "none", "kind": "unavailable"}


def platform_info(**extra) -> dict:
    """The host stamp shared by every record (plus producer extras)."""
    info = {
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "machine": _platform.machine(),
        "system": _platform.system(),
    }
    info.update(extra)
    return info


def make_report(
    kind: str,
    *,
    backend: dict | str | None = None,
    precision=None,
    energy: dict | None = None,
    platform: dict | None = None,
    created_unix: float | None = None,
    **payload,
) -> dict:
    """Build and validate one ``repro-bench-report/2`` record.

    ``backend`` may be a bare name (used for both requested and
    resolved) or an explicit ``{"requested": ..., "resolved": ...}``
    mapping.  ``precision`` is one mode or the list of swept modes and
    defaults to ``"double"``.  ``energy`` defaults to provenance-free
    (``provider="none", kind="unavailable"``) so producers without
    telemetry stay honest rather than silent.
    """
    if isinstance(backend, str):
        backend = {"requested": backend, "resolved": backend}
    record = {
        "schema": SCHEMA,
        "kind": kind,
        "created_unix": time.time() if created_unix is None else created_unix,
        "platform": platform if platform is not None else platform_info(),
        "backend": backend if backend is not None else {
            "requested": "auto",
            "resolved": "auto",
        },
        "precision": precision if precision is not None else "double",
        "energy": energy if energy is not None else {
            "provider": "none",
            "kind": "unavailable",
        },
    }
    shadowed = sorted(set(payload) & set(ENVELOPE_FIELDS))
    if shadowed:
        raise ReportError(f"payload shadows envelope fields: {shadowed}")
    record.update(payload)
    return validate_report(record)


def _check_precision(value, problems: list[str]) -> None:
    if isinstance(value, str):
        if value not in PRECISIONS:
            problems.append(f"precision {value!r} not in {PRECISIONS}")
        return
    if isinstance(value, (list, tuple)):
        if not value:
            problems.append("precision list is empty")
        for mode in value:
            if mode not in PRECISIONS:
                problems.append(f"precision {mode!r} not in {PRECISIONS}")
        return
    problems.append(f"precision must be a mode or list of modes, got {value!r}")


def validate_report(record) -> dict:
    """Validate the envelope; returns ``record`` or raises ReportError."""
    if not isinstance(record, dict):
        raise ReportError(f"record must be a dict, got {type(record).__name__}")
    problems: list[str] = []

    if record.get("schema") != SCHEMA:
        problems.append(f"schema {record.get('schema')!r} != {SCHEMA!r}")
    if record.get("kind") not in KINDS:
        problems.append(f"kind {record.get('kind')!r} not in {KINDS}")

    created = record.get("created_unix")
    if not isinstance(created, (int, float)) or created <= 0:
        problems.append(f"created_unix must be positive epoch seconds, got {created!r}")

    host = record.get("platform")
    if not isinstance(host, dict):
        problems.append("platform must be a dict")
    else:
        for field in _PLATFORM_REQUIRED:
            if not isinstance(host.get(field), str) or not host.get(field):
                problems.append(f"platform.{field} must be a non-empty string")

    backend = record.get("backend")
    if not isinstance(backend, dict):
        problems.append("backend must be a dict with requested/resolved")
    else:
        for field in ("requested", "resolved"):
            if field not in backend:
                problems.append(f"backend.{field} is missing")

    if "precision" not in record:
        problems.append("precision is missing")
    else:
        _check_precision(record["precision"], problems)

    energy = record.get("energy")
    if not isinstance(energy, dict):
        problems.append("energy must be a dict with provider/kind")
    else:
        if not isinstance(energy.get("provider"), str) or not energy.get("provider"):
            problems.append("energy.provider must be a non-empty string")
        if energy.get("kind") not in ENERGY_KINDS:
            problems.append(
                f"energy.kind {energy.get('kind')!r} not in {ENERGY_KINDS}"
            )

    if problems:
        raise ReportError("; ".join(problems))
    return record


def load_report(path: str | Path) -> dict:
    """Read and validate a record from ``path``."""
    return validate_report(json.loads(Path(path).read_text()))
