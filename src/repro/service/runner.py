"""Execute one :class:`JobSpec` to a :class:`JobResult`.

This is the code a pool worker (or an in-process caller) runs for each
job.  It builds the simulation the spec describes, runs it in chunks
(reporting progress between chunks), and reduces the final state to the
JSON-safe record the cache stores: thermodynamic endpoints plus a
SHA-256 state digest for bitwise comparisons.

Jobs with ``workers > 1`` run on the shared-memory parallel engine
*under the PR-4 recovery supervisor*: a
:class:`~repro.reliability.ResilientRunner` over a throwaway
:class:`~repro.reliability.CheckpointManager`, so an engine worker
killed mid-job (by a real fault or an injected
:class:`~repro.reliability.FaultPlan`) is respawned from the latest
checkpoint and the job still completes — bitwise-identical to an
uninterrupted run, which is what makes fault plans cache-key-neutral.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable

from repro.md import RunConfig
from repro.md.kernels import backend_spec, get_backend
from repro.reliability.certify import DigestRecorder
from repro.service.spec import JobResult, JobSpec, state_digest

__all__ = ["execute_job"]

#: Steps between progress callbacks (and recovery-supervisor chunks).
PROGRESS_CHUNK_FRACTION = 10


def _build_simulation(spec: JobSpec):
    """Build (and precision/backend-configure) the spec's simulation."""
    if spec.deck is not None:
        from repro.md.deck import parse_deck

        deck = parse_deck(spec.deck)
        sim = deck.simulation
        steps = deck.run_steps if spec.steps is None else int(spec.steps)
    else:
        from repro.suite import get_benchmark

        build = get_benchmark(spec.benchmark).build
        kwargs = {} if spec.seed is None else {"seed": int(spec.seed)}
        sim = build(int(spec.n_atoms), **kwargs)
        steps = int(spec.steps)
    sim.set_precision(spec.precision)
    sim.set_backend(backend_spec(get_backend(spec.backend)))
    return sim, steps


def execute_job(
    spec: JobSpec,
    *,
    progress: Callable[[int, int], None] | None = None,
    worker_id: int = -1,
) -> JobResult:
    """Run one job to completion and return its cacheable result.

    ``progress(done_steps, total_steps)`` is invoked after every chunk
    (about ``PROGRESS_CHUNK_FRACTION`` times per job, at least once).
    """
    payload = spec.canonical_payload()
    tick = time.perf_counter()
    sim, steps = _build_simulation(spec)
    chunk = max(1, steps // PROGRESS_CHUNK_FRACTION)
    # The digest cadence is a pure function of the spec (the chunk
    # size), so any route to the same spec — direct call, pool worker,
    # spool ticket — produces the identical chain, head included.
    digest = DigestRecorder(every=chunk)
    recovery_events = 0
    try:
        if spec.workers > 1:
            recovery_events = _run_parallel(
                spec, sim, steps, chunk, progress, digest
            )
        else:
            done = 0
            while done < steps:
                n = min(chunk, steps - done)
                sim.run(RunConfig(steps=n, digest=digest))
                done += n
                if progress is not None:
                    progress(done, steps)
        digest.finalize(sim)
        wall = time.perf_counter() - tick
        return JobResult(
            key=spec.cache_key(),
            benchmark=spec.benchmark,
            n_atoms=int(sim.system.n_atoms),
            steps=steps,
            seed=spec.effective_seed(),
            precision=payload["precision"],
            backend=payload["backend"],
            backend_provider=payload["backend_provider"],
            total_energy=float(sim.total_energy()),
            potential_energy=float(sim.potential_energy),
            temperature=float(sim.system.temperature()),
            state_digest=state_digest(sim.system),
            wall_seconds=wall,
            ts_per_s=steps / wall if wall > 0 else 0.0,
            worker_id=int(worker_id),
            engine_workers=int(spec.workers),
            recovery_events=recovery_events,
            tag=spec.tag,
            digest_head=digest.chain.head,
            digest_every=digest.every,
            digest_chain=[e.to_json() for e in digest.chain.entries],
            spec_json=spec.to_json(),
        )
    finally:
        sim.close()


def _run_parallel(spec: JobSpec, sim, steps, chunk, progress, digest) -> int:
    """Drive the job on the parallel engine under crash recovery."""
    from repro.parallel.engine import ParallelForceExecutor
    from repro.reliability import CheckpointManager, FaultPlan, ResilientRunner

    plan = FaultPlan.parse(spec.fault_plan) if spec.fault_plan else None
    executor = ParallelForceExecutor(
        int(spec.workers),
        fault_plan=plan,
        precision=spec.precision,
    )
    sim.force_executor = executor
    executor.bind(sim)
    with tempfile.TemporaryDirectory(prefix="repro-job-ckpt-") as tmp:
        manager = CheckpointManager(
            tmp, every=int(spec.checkpoint_every), fault_plan=plan
        )
        runner = ResilientRunner(sim, manager, digest=digest)
        done = 0
        while done < steps:
            n = min(chunk, steps - done)
            runner.run(n)
            done += n
            if progress is not None:
                progress(done, steps)
        return len(runner.events)
