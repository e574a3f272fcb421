"""``scale`` — run on the shared-memory parallel engine with parity checks."""

from __future__ import annotations

import argparse

from repro.cli import command
from repro.cli.options import (
    add_backend_option,
    add_precision_option,
    add_workers_option,
)
from repro.suite import BENCHMARK_NAMES


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", choices=BENCHMARK_NAMES)
    add_workers_option(parser, default=2,
                       help="worker process count (one subdomain each)")
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--atoms", type=int, default=2000,
                        help="target atom count (builders round to lattice)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="periodic checkpoint cadence in steps (0 = off)")
    parser.add_argument("--checkpoint-dir", default="checkpoint_out",
                        help="directory for --checkpoint-every snapshots")
    add_backend_option(parser)
    add_precision_option(
        parser,
        help="dtype policy for both the serial reference and the worker "
             "pool (parity tolerance scales with the mode)",
    )


@command(
    "scale",
    "run on the shared-memory parallel engine",
    configure=_configure,
)
def _cmd_scale(args: argparse.Namespace) -> int:
    import os

    import numpy as np

    from repro.md import RunConfig
    from repro.md.precision import PARITY_TOLERANCES
    from repro.service import JobSpec, build_simulation

    if args.workers < 2:
        print("scale compares the serial engine against a worker pool: "
              "--workers must be >= 2")
        return 2
    described = dict(benchmark=args.experiment, n_atoms=args.atoms,
                     steps=args.steps, precision=args.precision,
                     backend=args.backend)
    serial, _steps = build_simulation(JobSpec(**described))
    backend = serial.backend
    if backend.fallback is not None:
        # get_backend degrades an unavailable optional backend to the
        # default with a warning; surface the reason on the CLI too.
        print(f"backend {backend.requested!r} is unavailable "
              f"({backend.fallback}); using {backend.name!r}")
    serial.setup()
    print(f"built {args.experiment}: {serial.system.n_atoms} atoms, "
          f"{os.cpu_count()} cores visible; running {args.steps} steps at "
          f"{args.precision} precision on the {serial.backend.name} "
          f"backend, serial then on {args.workers} workers")
    import time as _time

    tick = _time.perf_counter()
    cpu_tick = _time.process_time()
    builds_at_setup = serial.neighbor.stats.n_builds
    serial.run(RunConfig(steps=args.steps, reset_timers=True))
    serial_wall = _time.perf_counter() - tick
    serial_cpu = _time.process_time() - cpu_tick
    serial_builds = serial.neighbor.stats.n_builds - builds_at_setup
    serial_pair = serial.timers.seconds.get("Pair", 0.0)
    serial_neigh = serial.timers.seconds.get("Neigh", 0.0)

    manager = None
    if args.checkpoint_every > 0:
        from repro.observability import MetricsRegistry
        from repro.reliability import CheckpointManager

        manager = CheckpointManager(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            metrics=MetricsRegistry(),
        )
        print(f"checkpointing every {args.checkpoint_every} steps "
              f"under {args.checkpoint_dir}")

    parallel, _steps = build_simulation(JobSpec(**described, workers=args.workers))
    executor = parallel.force_executor
    with parallel:
        parallel.setup()
        # Drop the setup-time initial build from the accumulators; the
        # serial side's reset_timers does the same for its task timers.
        executor.reset_timings()
        storage = np.dtype(executor.precision.storage_dtype)
        print(f"shm arena: {executor.arena_nbytes / 1e6:.2f} MB "
              f"({storage.name} per-atom exchange state)")
        tick = _time.perf_counter()
        cpu_tick = _time.process_time()
        parallel.run(
            RunConfig(steps=args.steps, reset_timers=True, checkpoint=manager)
        )
        parallel_wall = _time.perf_counter() - tick
        master_cpu = _time.process_time() - cpu_tick
        if manager is not None:
            print(f"wrote {manager.writes} checkpoints, retained "
                  f"{[p.name for p in manager.checkpoints()]}")
            if manager.writes:
                write_seconds = manager.metrics.histogram(
                    "md_checkpoint_write_seconds"
                ).mean
                write_bytes = manager.metrics.gauge("md_checkpoint_bytes").value
                print(f"checkpoint write: {write_seconds * 1e3:.1f} ms and "
                      f"{write_bytes:.0f} bytes per write")

        force_delta = float(
            np.abs(serial.system.forces - parallel.system.forces).max()
        )
        energy_delta = abs(serial.potential_energy - parallel.potential_energy)
        parity_tol = PARITY_TOLERANCES[args.precision]
        # Two gates at one tolerance: forces absolute, energy relative
        # to its own magnitude (a dropped term moves only the latter).
        gates = {
            "forces": force_delta,
            "energy": energy_delta / max(1.0, abs(serial.potential_energy)),
        }
        diverged = [name for name, delta in gates.items() if not delta < parity_tol]
        verdict = f"DIVERGED: {' and '.join(diverged)}" if diverged else "OK"
        print(f"parity: |dF|max = {force_delta:.3e}, "
              f"|dE| = {energy_delta:.3e} "
              f"(tol {parity_tol:.0e}, {verdict})")
        print(f"serial:   {args.steps / serial_wall:8.2f} steps/s "
              f"({serial_wall:.3f} s wall, Pair {serial_pair:.3f} s)")
        print(f"parallel: {args.steps / parallel_wall:8.2f} steps/s "
              f"({parallel_wall:.3f} s wall)")
        # The rebuild on its own: the master's Neigh wall is the slowest
        # worker's rebuild plus the per-step skin checks and dispatch.
        builds = executor.builds_measured
        print(f"serial Neigh:   {serial_neigh:.3f} s, {serial_builds} builds"
              + (f" ({serial_neigh / serial_builds * 1e3:.1f} ms/build with "
                 f"the skin checks)" if serial_builds else ""))
        print(f"parallel Neigh: {parallel.timers.seconds.get('Neigh', 0.0):.3f} s, "
              f"{builds} builds"
              + (f"; slowest worker rebuild "
                 f"{executor.worker_neigh_seconds.max() / builds * 1e3:.1f} ms wall, "
                 f"{executor.worker_neigh_cpu_seconds.max() / builds * 1e3:.1f} ms "
                 f"CPU per build" if builds else ""))
        steps = max(1, executor.steps_measured)
        # Critical path under true concurrency: master CPU per step plus
        # the slowest worker's (pair + amortized rebuild) CPU per step.
        # CPU time is scheduling-invariant, so this holds on hosts with
        # fewer cores than workers (where wall clock just serializes).
        worker_cpu = (
            executor.worker_pair_cpu_seconds + executor.worker_neigh_cpu_seconds
        ) / steps
        critical = master_cpu / args.steps + float(worker_cpu.max())
        print(f"wall-clock speedup:     {serial_wall / parallel_wall:.2f}x")
        print(f"critical-path speedup:  {serial_cpu / args.steps / critical:.2f}x "
              f"(slowest worker pair+rebuild CPU: {worker_cpu.max()*1e3:.2f} "
              f"ms/step)")
        print()
        print(executor.timeline().render())
    return 1 if diverged else 0
