"""``trace`` — run a functional benchmark under the span tracer."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli import command
from repro.suite import BENCHMARK_NAMES


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", choices=BENCHMARK_NAMES)
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--atoms", type=int, default=500,
                        help="target atom count (builders round to lattice)")
    parser.add_argument("--warmup", type=int, default=5,
                        help="untraced steps before recording starts")
    parser.add_argument("--out", default="trace_out")
    parser.add_argument("--capacity", type=int, default=65_536,
                        help="span ring-buffer capacity")
    parser.add_argument("--snapshot-every", type=int, default=10,
                        help="steps between metrics snapshots")


@command(
    "trace",
    "trace a functional benchmark run",
    configure=_configure,
)
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.md.kernels import resolved_backend
    from repro.observability import (
        MetricsRegistry,
        Tracer,
        render_agreement,
        render_span_table,
        render_task_table,
    )
    from repro.service import JobSpec, build_simulation

    sim, _steps = build_simulation(JobSpec(benchmark=args.experiment, n_atoms=args.atoms))
    tracer = Tracer(capacity=args.capacity)
    metrics = MetricsRegistry()
    sim.attach_tracer(tracer)
    sim.attach_metrics(metrics)
    print(f"built {args.experiment}: {sim.system.n_atoms} atoms, "
          f"backend {resolved_backend(sim.backend)[0]}")
    if args.warmup:
        sim.run(args.warmup)
    tracer.reset()

    out = Path(args.out)
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()  # JSONL appends; start each invocation fresh
    print(f"tracing {args.steps} steps ...")
    from repro.md import RunConfig

    chunk = max(1, min(args.snapshot_every, args.steps))
    done = 0
    while done < args.steps:
        n = min(chunk, args.steps - done)
        sim.run(RunConfig(steps=n, reset_timers=done == 0))
        done += n
        metrics.write_snapshot(metrics_path, step=done, experiment=args.experiment)

    trace_path = tracer.write_chrome_trace(
        out / "trace.json", process_name=f"repro:{args.experiment}"
    )
    print()
    print(render_task_table(sim.timers, args.steps))
    print()
    print(render_span_table(tracer))
    print()
    print(tracer.flame_report())
    print()
    print(render_agreement(sim.timers, tracer))
    if tracer.n_dropped:
        print(f"ring buffer wrapped: {tracer.n_dropped} oldest spans dropped "
              f"(raise --capacity to keep them)")
    print(f"wrote {trace_path} (open in chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    return 0
