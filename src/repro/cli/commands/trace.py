"""``trace`` — run a functional benchmark under the span tracer.

With ``--power`` the same run is also the energy measurement: the
hardware telemetry sampler runs around the traced steps, the sampled
joules are attributed to the traced phases, and a
``repro-bench-report/2`` record (kind ``power``) lands beside the trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli import command
from repro.cli.options import add_backend_option, int_at_least, positive_float
from repro.suite import BENCHMARK_NAMES

#: ``--power`` choices: ``auto`` walks the rapl -> procfs -> model
#: ladder; the rest force one.  The flag is the only way to choose.
POWER_CHOICES = ("auto", "rapl", "dram", "procfs", "model")


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", choices=BENCHMARK_NAMES)
    parser.add_argument("--steps", type=int_at_least(1), default=50)
    parser.add_argument("--atoms", type=int_at_least(1), default=500,
                        help="target atom count (builders round to lattice)")
    parser.add_argument("--warmup", type=int_at_least(0), default=5,
                        help="untraced, unsampled steps before recording starts")
    parser.add_argument("--out", default="trace_out",
                        help="directory for trace.json, metrics.jsonl and, "
                             "with --power, energy.json")
    parser.add_argument("--capacity", type=int_at_least(1), default=65_536,
                        help="span ring-buffer capacity")
    parser.add_argument("--snapshot-every", type=int_at_least(1), default=10,
                        help="steps between metrics snapshots (and live "
                             "power readouts)")
    add_backend_option(parser)
    parser.add_argument("--power", nargs="?", const="auto", default=None,
                        choices=POWER_CHOICES, metavar="PROVIDER",
                        help="also sample power and attribute the joules "
                             "per phase; bare --power auto-detects "
                             "rapl -> procfs -> model and records why it "
                             "skipped each rung, a name forces one of "
                             "rapl, dram, procfs, model (`dram` reads the "
                             "RAPL memory-controller subdomain and is never "
                             "auto-selected)")
    parser.add_argument("--period", type=positive_float, default=0.5,
                        help="power sampling period in seconds (paper "
                             "cadence 0.5)")


@command(
    "trace",
    "trace a functional benchmark run, optionally measuring its energy",
    configure=_configure,
)
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.md import RunConfig
    from repro.observability import (
        MetricsRegistry,
        Tracer,
        render_agreement,
        render_span_table,
        render_task_table,
    )
    from repro.service import JobSpec, build_simulation

    sampler = None
    if args.power is not None:
        from repro.observability import telemetry

        try:
            provider = telemetry.detect_provider(args.power)
        except (RuntimeError, ValueError) as exc:
            print(f"power provider unavailable: {exc}", file=sys.stderr)
            return 2
        sampler = telemetry.TelemetrySampler(provider, period_s=args.period)

    try:
        sim, _steps = build_simulation(
            JobSpec(benchmark=args.experiment, n_atoms=args.atoms,
                    backend=args.backend)
        )
        # The engine's first neighbor build would refuse this box; ask
        # now, before anything is traced (the check records no span).
        sim.neighbor.check_box(sim.system.box)
    except ValueError as exc:
        print(f"repro trace: cannot build {args.experiment} with "
              f"--atoms {args.atoms}: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer(capacity=args.capacity)
    metrics = MetricsRegistry()
    sim.attach_tracer(tracer)
    sim.attach_metrics(metrics)
    built = (f"built {args.experiment}: {sim.system.n_atoms} atoms, "
             f"backend {sim.backend.name}")
    if sampler is not None:
        built += (f"; power provider {sampler.provider.name} "
                  f"({sampler.provider.kind})")
    print(built)
    if args.warmup:
        sim.run(args.warmup)
    tracer.reset()

    out = Path(args.out)
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()  # JSONL appends; start each invocation fresh
    if sampler is None:
        print(f"tracing {args.steps} steps ...")
    else:
        print(f"tracing {args.steps} steps, sampling power every "
              f"{args.period:g} s ...")
        sampler.start()

    done = 0
    try:
        while done < args.steps:
            n = min(args.snapshot_every, args.steps - done)
            sim.run(RunConfig(steps=n, reset_timers=done == 0))
            done += n
            if sampler is not None:
                sample = sampler.sample_now()
                print(f"  step {done:>6d}/{args.steps}: {sample.watts:7.2f} W, "
                      f"{sampler.total_joules:9.2f} J cumulative", flush=True)
            metrics.write_snapshot(metrics_path, step=done, experiment=args.experiment)
    finally:
        if sampler is not None:
            sampler.stop()

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
    if sampler is not None:
        print()
        energy_path = _report_energy(args, sim, sampler, tracer, out / "energy.json")
    print(f"wrote {trace_path} (open in chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    if sampler is not None:
        print(f"wrote {energy_path}")
    return 0


def _report_energy(args, sim, sampler, tracer, path: Path) -> Path:
    """Print the per-phase energy table and totals; write the record.

    TS/s/W is a metric only over measured joules: for an ``estimated``
    or ``modeled`` provider the record carries ``null`` and the printed
    line says why.  Joules and the per-phase split stay, labelled by
    the record's ``energy.kind``.
    """
    import json

    from repro.atomicio import atomic_write
    from repro.observability.telemetry import (
        attribute_energy,
        render_energy_table,
    )
    from repro.observability.telemetry.sampler import MIN_RUN_SECONDS
    from repro.report import make_report

    provider = sampler.provider
    attribution = attribute_energy(sampler.samples, tracer.records())
    summary = sampler.summary(steps=args.steps)
    efficiency = summary["ts_per_s_per_watt"]
    print(render_energy_table(attribution, steps=args.steps))
    print()
    print(f"throughput:        {summary['ts_per_s']:10.3f} TS/s over "
          f"{summary['duration_s']:.2f} s")
    print(f"mean power:        {summary['mean_watts']:10.2f} W "
          f"({provider.name}, {provider.kind})")
    if efficiency is None:
        print(f"energy efficiency:        n/a TS/s/W — the watts are "
              f"modeled ({provider.name}, {provider.kind}), not measured")
    else:
        print(f"energy efficiency: {efficiency:10.4f} TS/s/W")
    print(f"energy per step:   {summary['joules_per_step']:10.3f} J/step")
    if sampler.under_sampled:
        print(f"NOTE: run lasted {summary['duration_s']:.2f} s < "
              f"{MIN_RUN_SECONDS:.0f} s — under-sampled; do not "
              "compare these numbers across runs")

    report = make_report(
        "power",
        backend={
            "requested": sim.backend.requested,
            "resolved": sim.backend.name,
        },
        precision="double",
        energy={"provider": provider.name, "kind": provider.kind},
        experiment=args.experiment,
        n_atoms=sim.system.n_atoms,
        steps=args.steps,
        warmup=args.warmup,
        duration_s=summary["duration_s"],
        ts_per_s=summary["ts_per_s"],
        mean_watts=summary["mean_watts"],
        joules=summary["joules"],
        joules_per_step=summary["joules_per_step"],
        ts_per_s_per_watt=efficiency,
        sampling=sampler.provenance(),
        attribution=attribution.to_json(),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(report, indent=2) + "\n")
    return path
