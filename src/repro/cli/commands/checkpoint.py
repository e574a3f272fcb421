"""``checkpoint`` — periodic checkpointing with supervised crash recovery."""

from __future__ import annotations

import argparse

from repro.cli import command
from repro.cli.options import (
    add_precision_option,
    add_workers_option,
    int_at_least,
    positive_float,
)
from repro.suite import BENCHMARK_NAMES


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", choices=BENCHMARK_NAMES)
    parser.add_argument("--steps", type=int_at_least(1), default=40)
    parser.add_argument("--atoms", type=int_at_least(1), default=500,
                        help="target atom count (builders round to lattice)")
    add_workers_option(parser, default=1,
                       help="worker processes (1 = serial executor)")
    parser.add_argument("--every", type=int_at_least(0), default=10,
                        help="checkpoint cadence in steps (0 = off)")
    parser.add_argument("--keep-last", type=int_at_least(1), default=3,
                        help="checkpoint retention depth")
    parser.add_argument("--out", default="checkpoint_out",
                        help="checkpoint directory")
    parser.add_argument("--fault-plan", default=None,
                        help="inject faults: kind:worker:step[:phase];... "
                             "(kinds kill/hang; phases step/rebuild/"
                             "checkpoint)")
    parser.add_argument("--max-restarts", type=int_at_least(0), default=2,
                        help="pool respawns before degrading to serial")
    parser.add_argument("--barrier-timeout", type=positive_float, default=30.0,
                        help="seconds before a silent worker is declared "
                             "hung")
    parser.add_argument("--verify-parity", action="store_true",
                        help="re-run uninterrupted and compare final state")
    add_precision_option(
        parser,
        help="dtype policy; checkpoints record it and restarts refuse a "
             "silent mode change",
    )


@command(
    "checkpoint",
    "run under periodic checkpointing with crash recovery",
    configure=_configure,
)
def _cmd_checkpoint(args: argparse.Namespace) -> int:
    import dataclasses

    import numpy as np

    from repro.md.precision import PARITY_TOLERANCES
    from repro.reliability import (
        CertificationManifest,
        CheckpointManager,
        DigestRecorder,
        ResilientRunner,
    )
    from repro.reliability.certify import chain_path, manifest_path
    from repro.service import JobSpec, build_simulation

    plan_text = args.fault_plan or None
    spec = JobSpec(benchmark=args.experiment, n_atoms=args.atoms,
                   steps=args.steps, precision=args.precision,
                   workers=args.workers, fault_plan=plan_text,
                   checkpoint_every=args.every)

    def build(spec):
        sim, _steps = build_simulation(spec)
        if spec.workers > 1:
            sim.force_executor.barrier_timeout = args.barrier_timeout
        return sim

    # The engine owns the plan: it takes checkpoint-phase faults too,
    # when the manager's write asks.
    sim = build(spec)
    print(f"built {args.experiment}: {sim.system.n_atoms} atoms on "
          f"{args.workers} worker(s) at {args.precision} precision; "
          f"checkpoint every {args.every} steps "
          f"under {args.out}"
          + (f"; fault plan {plan_text!r}" if plan_text else ""))
    manager = CheckpointManager(
        args.out, every=args.every, keep_last=args.keep_last
    )
    # Digest on the checkpoint cadence so every retained snapshot has a
    # chain entry for `repro certify` to replay against.
    digest = DigestRecorder(
        every=args.every if args.every > 0 else max(1, args.steps),
        path=chain_path(args.out),
    )
    runner = ResilientRunner(
        sim, manager, max_restarts=args.max_restarts, digest=digest,
        logger=print
    )
    events = runner.run(args.steps)
    digest.finalize(sim)
    manifest = CertificationManifest.capture(
        sim,
        digest.chain,
        dataclasses.replace(spec, workers=1) if runner.degraded else spec,
        digest_every=digest.every,
        extra={"recovery_events": len(events), "degraded": runner.degraded},
    )
    manifest.save(manifest_path(args.out))
    sim.close()
    retained = [p.name for p in manager.checkpoints()]
    print(f"finished at step {sim.step_number}: "
          f"E_total = {sim.total_energy():.10f}, "
          f"{manager.writes} checkpoint writes, retained {retained}")
    print(f"recovery events: {len(events)} "
          f"({sum(e.action == 'respawn' for e in events)} respawn(s), "
          f"{sum(e.action == 'degrade-serial' for e in events)} degradation(s))")
    print(f"certification: chain head {manifest.chain_head[:16]}… "
          f"({manifest.chain_entries} digest entries) sealed in "
          f"{args.out}/manifest.json — verify with "
          f"`python -m repro certify {args.out}`")

    if not args.verify_parity:
        return 0
    reference = build(dataclasses.replace(spec, fault_plan=None))
    reference.run(args.steps)
    reference.close()
    delta = float(np.abs(reference.system.positions - sim.system.positions).max())
    bitwise = bool(
        np.array_equal(reference.system.positions, sim.system.positions)
        and np.array_equal(reference.system.velocities, sim.system.velocities)
    )
    tolerance = PARITY_TOLERANCES[args.precision]
    verdict = "OK" if (bitwise or delta <= tolerance) else "DIVERGED"
    print(f"parity vs uninterrupted run: bitwise={bitwise}, "
          f"|dx|max = {delta:.3e} (tol {tolerance:.0e}, {verdict})")
    return 0 if verdict == "OK" else 1
