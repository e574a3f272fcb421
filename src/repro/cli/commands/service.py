"""Batch-service commands: ``serve`` (spool server) and ``submit``."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli import command
from repro.cli.options import (
    add_backend_option,
    add_precision_option,
    add_workers_option,
    int_at_least,
    positive_float,
)
from repro.suite import BENCHMARK_NAMES


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spool", default="service_spool",
                        help="spool directory shared with submitters")
    add_workers_option(parser, default=2,
                       help="pool size: jobs executed concurrently")
    parser.add_argument("--cache-entries", type=int_at_least(1), default=1024,
                        help="memory-layer bound of the result cache")
    parser.add_argument("--max-requeues", type=int_at_least(0), default=2,
                        help="pool-worker deaths one job survives")
    parser.add_argument("--poll", type=positive_float, default=0.1,
                        help="spool polling period in seconds")
    parser.add_argument("--max-seconds", type=positive_float, default=None,
                        help="exit (with drain) after this long; default "
                             "runs until SIGTERM/SIGINT")


@command(
    "serve",
    "run the batch-simulation service over a file spool",
    configure=_configure_serve,
)
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BatchService, SpoolServer

    spool = Path(args.spool)
    service = BatchService(
        args.workers,
        cache_dir=spool / "cache",
        max_cache_entries=args.cache_entries,
        max_requeues=args.max_requeues,
    )
    server = SpoolServer(spool, service, poll=args.poll)
    server.install_signal_handlers()
    print(f"serving spool {spool} on {args.workers} workers "
          f"(cache: {spool / 'cache'}); SIGTERM drains and exits")
    try:
        server.serve_forever(max_seconds=args.max_seconds)
    finally:
        service.close()
        snapshot = service.metrics.write_snapshot(spool / "metrics.jsonl")
        stats = service.stats()
        cache = stats["cache"]
        print(f"drained: answered {server.answered} tickets, "
              f"cache {cache['hits']} hits / {cache['misses']} misses, "
              f"{stats['worker_respawns']} worker respawns; "
              f"metrics -> {snapshot}")
    return 0


def _configure_submit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", nargs="?", default=None,
                        choices=BENCHMARK_NAMES,
                        help="suite benchmark (or use --deck)")
    parser.add_argument("--deck", default=None, metavar="PATH",
                        help="submit a LAMMPS input deck instead")
    parser.add_argument("--spool", default="service_spool",
                        help="spool directory of the server")
    parser.add_argument("--atoms", type=int_at_least(1), default=500,
                        help="target atom count (builders round to lattice)")
    parser.add_argument("--steps", type=int_at_least(1), default=100)
    parser.add_argument("--seed", type=int, default=None,
                        help="builder seed (default: benchmark's own)")
    add_precision_option(parser)
    add_backend_option(parser)
    add_workers_option(parser, default=1,
                       help="engine workers per job (1 = serial)")
    parser.add_argument("--tag", default=None, help="free-form job label")
    parser.add_argument("--repeat", type=int_at_least(1), default=1,
                        help="submit the same spec N times (dedup demo)")
    parser.add_argument("--no-wait", action="store_true",
                        help="print tickets and exit without waiting")
    parser.add_argument("--timeout", type=positive_float, default=600.0,
                        help="seconds to wait per ticket")


@command(
    "submit",
    "submit jobs to a running `repro serve`",
    configure=_configure_submit,
)
def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobSpec, SpoolClient

    if (args.experiment is None) == (args.deck is None):
        print("give exactly one of an experiment name or --deck PATH")
        return 2
    deck_text = None
    if args.deck is not None:
        deck_text = open(args.deck).read()
    spec = JobSpec(
        benchmark=args.experiment,
        deck=deck_text,
        n_atoms=args.atoms,
        steps=args.steps,
        seed=args.seed,
        precision=args.precision,
        backend=args.backend,
        workers=args.workers,
        tag=args.tag,
    )
    client = SpoolClient(args.spool)
    tickets = [client.submit(spec) for _ in range(args.repeat)]
    print(f"submitted {len(tickets)} ticket(s) for key "
          f"{spec.cache_key()[:16]}…")
    if args.no_wait:
        for ticket in tickets:
            print(f"  ticket {ticket}")
        return 0
    failures = 0
    for ticket in tickets:
        try:
            result = client.wait(ticket, timeout=args.timeout)
        except (RuntimeError, TimeoutError) as e:
            print(f"  {ticket[:8]} FAILED: {e}")
            failures += 1
            continue
        source = "cache" if result.cached else f"worker {result.worker_id}"
        print(f"  {ticket[:8]} done via {source}: "
              f"E_total={result.total_energy:.6f} "
              f"T={result.temperature:.4f} "
              f"({result.ts_per_s:.1f} steps/s, "
              f"digest {result.state_digest[:12]}…)")
    return 1 if failures else 0
