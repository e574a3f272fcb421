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

import contextlib
import tempfile
import time
from typing import Callable

from repro.md import RunConfig
from repro.md.kernels import backend_spec, get_backend
from repro.reliability.certify import DigestRecorder
from repro.service.spec import JobResult, JobSpec, state_digest

__all__ = ["build_simulation", "execute_job"]

#: Steps between progress callbacks (and recovery-supervisor chunks).
PROGRESS_CHUNK_FRACTION = 10


def build_simulation(spec: JobSpec):
    """Build the run ``spec`` describes; returns ``(simulation, steps)``.

    The one builder (service, certify replay, ``repro checkpoint``,
    ``repro scale``): registry or deck build, the spec's precision, its
    *resolved* backend and, when ``spec.workers > 1``, a bound parallel
    executor carrying the parsed ``spec.fault_plan``.  The caller closes it.
    """
    if spec.deck is not None:
        from repro.md.deck import parse_deck

        deck = parse_deck(spec.deck)
        sim = deck.simulation
        steps = deck.run_steps if spec.steps is None else spec.steps
    else:
        from repro.suite import get_benchmark

        kwargs = {} if spec.seed is None else {"seed": spec.seed}
        sim = get_benchmark(spec.benchmark).build(spec.n_atoms, **kwargs)
        steps = spec.steps
    sim.set_precision(spec.precision)
    sim.set_backend(backend_spec(get_backend(spec.backend)))
    if spec.workers > 1:
        from repro.parallel.engine import ParallelForceExecutor
        from repro.reliability import FaultPlan

        plan = FaultPlan.parse(spec.fault_plan) if spec.fault_plan else None
        sim.force_executor = ParallelForceExecutor(
            spec.workers, fault_plan=plan, precision=spec.precision
        )
        sim.force_executor.bind(sim)
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
    sim, steps = build_simulation(spec)
    chunk = max(1, steps // PROGRESS_CHUNK_FRACTION)
    # The digest cadence is a pure function of the spec (the chunk
    # size), so any route to the same spec — direct call, pool worker,
    # spool ticket — produces the identical chain, head included.
    digest = DigestRecorder(every=chunk)
    supervisor = None
    try:
        with contextlib.ExitStack() as scratch:
            if spec.workers > 1:
                from repro.reliability import CheckpointManager, ResilientRunner

                tmp = scratch.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-job-ckpt-")
                )
                manager = CheckpointManager(
                    tmp,
                    every=spec.checkpoint_every,
                    fault_plan=sim.force_executor.fault_plan,
                )
                supervisor = ResilientRunner(sim, manager, digest=digest)
            done = 0
            while done < steps:
                n = min(chunk, steps - done)
                if supervisor is not None:
                    supervisor.run(n)
                else:
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
            engine_workers=spec.workers,
            recovery_events=0 if supervisor is None else len(supervisor.events),
            tag=spec.tag,
            digest_head=digest.chain.head,
            digest_every=digest.every,
            digest_chain=[e.to_json() for e in digest.chain.entries],
            spec_json=spec.to_json(),
        )
    finally:
        sim.close()
