"""Run a campaign's job matrix through the batch service.

The runner is deliberately thin: expansion and validation live in
:mod:`repro.campaign.spec`, execution semantics (content-addressed
dedup, in-flight coalescing, bounded pool, fault recovery) live in
:class:`repro.service.BatchService`.  What this module adds is the
*accounting* — which sweep cells collapsed onto the same content
address, how many executions the dedup layer saved — and the merged
``repro-bench-report/2`` record a characterization campaign is run
for, plus optional figure regeneration from the freshly merged data.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.atomicio import atomic_write
from repro.campaign.spec import CampaignSpec
from repro.md.kernels import get_backend
from repro.report import make_report
from repro.service import BatchService, JobResult, JobSpec

__all__ = ["run_campaign", "render_figures"]


def _dedup_accounting(
    specs: list[JobSpec], results: list[JobResult], metrics: dict
) -> dict:
    """How much execution the content-address layer saved.

    ``coalesced`` counts submissions answered by an in-flight job
    (the scheduler's ``service_dedup_hits_total``); ``served_cached``
    counts submissions answered from the completed-result cache.  Both
    are dedup hits from the campaign's point of view.
    """
    keys = [spec.cache_key() for spec in specs]
    unique = sorted(set(keys))
    coalesced = int(
        metrics.get("service_dedup_hits_total", {}).get("value", 0)
    )
    served_cached = sum(1 for result in results if result.cached)
    return {
        "cells": len(specs),
        "unique_addresses": len(unique),
        "collapsed_cells": len(specs) - len(unique),
        "coalesced": coalesced,
        "served_cached": served_cached,
        "dedup_hits": coalesced + served_cached,
        "cache_keys": unique,
    }


def _cell_row(spec: JobSpec, result: JobResult) -> dict:
    """One merged row: the swept coordinates plus the measured outcome."""
    return {
        "benchmark": spec.benchmark,
        "deck_job": spec.deck is not None,
        "n_atoms": result.n_atoms,
        "steps": result.steps,
        "seed": result.seed,
        "precision": spec.precision,
        "backend_requested": spec.backend,
        "backend": result.backend,
        "backend_provider": result.backend_provider,
        "workers": spec.workers,
        "tag": spec.tag,
        "cache_key": spec.cache_key(),
        "cached": result.cached,
        "total_energy": result.total_energy,
        "potential_energy": result.potential_energy,
        "temperature": result.temperature,
        "state_digest": result.state_digest,
        "digest_head": result.digest_head,
        "wall_seconds": result.wall_seconds,
        "ts_per_s": result.ts_per_s,
        "recovery_events": result.recovery_events,
    }


def render_figures(names, directory: str | Path) -> list[str]:
    """Regenerate named figures into ``directory`` (one .txt each)."""
    import importlib

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        module = importlib.import_module(f"repro.figures.{name}")
        path = directory / f"{name}.txt"
        path.write_text(module.generate().render() + "\n")
        written.append(str(path))
    return written


def run_campaign(
    spec: CampaignSpec,
    *,
    out: str | Path | None = None,
    pool_workers: int | None = None,
    figure_dir: str | Path | None = None,
    timeout: float | None = None,
    verbose: bool = False,
) -> dict:
    """Expand ``spec``, execute the matrix, write the merged record.

    Returns the validated ``repro-bench-report/2`` dict (also written
    to ``out`` / the spec's ``out`` path).  Figure hooks render after
    the record lands, into ``figure_dir`` (default: ``figures/`` next
    to the report).
    """
    specs = spec.expand()
    n_workers = int(pool_workers or spec.pool_workers)
    wait = float(timeout or spec.timeout_seconds)
    if verbose:
        axes = ", ".join(
            f"{name}x{len(values)}" for name, values in spec.axes.items()
        ) or "no axes"
        print(
            f"campaign {spec.name!r}: {len(specs)} cells ({axes}), "
            f"pool={n_workers}",
            flush=True,
        )

    with BatchService(n_workers=n_workers) as service:
        if not service.wait_ready(timeout=wait):
            raise RuntimeError("batch-service pool failed to come up")
        results = service.map(specs, timeout=wait)
        stats = service.stats()

    dedup = _dedup_accounting(specs, results, stats.get("metrics", {}))
    rows = [_cell_row(s, r) for s, r in zip(specs, results)]
    precisions = sorted({spec_.precision for spec_ in specs})
    requested = sorted({
        get_backend(backend).requested
        for backend in {spec_.backend for spec_ in specs}
    })
    resolved = sorted({row["backend"] for row in rows})

    report = make_report(
        "campaign",
        backend={
            "requested": requested if len(requested) > 1 else requested[0],
            "resolved": resolved if len(resolved) > 1 else resolved[0],
        },
        precision=precisions if len(precisions) > 1 else precisions[0],
        campaign={
            "name": spec.name,
            "source_sha256": spec.source_sha256,
            "axes": {name: list(values) for name, values in spec.axes.items()},
            "base": dict(spec.base),
        },
        dedup=dedup,
        cells=rows,
        service={
            "workers": stats.get("workers"),
            "worker_respawns": stats.get("worker_respawns"),
            "jobs_seen": stats.get("jobs_seen"),
            "cache": stats.get("cache"),
        },
    )

    destination = Path(out) if out is not None else Path(spec.out)
    atomic_write(destination, json.dumps(report, indent=2) + "\n")
    if verbose:
        print(
            f"wrote {destination} ({dedup['cells']} cells, "
            f"{dedup['unique_addresses']} unique, "
            f"{dedup['dedup_hits']} dedup hits)",
            flush=True,
        )

    if spec.figures:
        target = (
            Path(figure_dir)
            if figure_dir is not None
            else destination.parent / "figures"
        )
        for path in render_figures(spec.figures, target):
            if verbose:
                print(f"figure -> {path}", flush=True)

    return report
