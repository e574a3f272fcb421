"""``power`` — per-phase energy measurement with hardware telemetry."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.cli import command
from repro.suite import BENCHMARK_NAMES


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", nargs="?", default="lj",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--atoms", type=int, default=32768,
                        help="target atom count (builders round to lattice)")
    parser.add_argument("--warmup", type=int, default=3,
                        help="untraced/unsampled steps before measurement")
    parser.add_argument("--provider",
                        choices=("rapl", "dram", "procfs", "model"),
                        default=None,
                        help="force a power provider (default: auto-detect "
                             "rapl -> procfs -> model, or "
                             "$REPRO_POWER_PROVIDER; `dram` reads the RAPL "
                             "memory-controller subdomain and is never "
                             "auto-selected)")
    parser.add_argument("--period", type=float, default=0.5,
                        help="sampling period in seconds (paper cadence 0.5)")
    parser.add_argument("--report-every", type=int, default=10,
                        help="steps between live power readouts")
    parser.add_argument("--capacity", type=int, default=65_536,
                        help="span ring-buffer capacity")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full energy report as JSON "
                             "(repro-bench-report/2, kind `power`)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write the Chrome trace of the sampled run")


@command(
    "power",
    "measure per-phase energy with hardware telemetry",
    configure=_configure,
)
def _cmd_power(args: argparse.Namespace) -> int:
    import json as _json

    from repro.md import RunConfig
    from repro.md.kernels import BACKEND_ENV_VAR, DEFAULT_BACKEND
    from repro.observability import MetricsRegistry, Tracer
    from repro.observability.telemetry import (
        TelemetrySampler,
        attribute_energy,
        detect_provider,
        platform_provenance,
        render_energy_table,
    )
    from repro.service import JobSpec, build_simulation

    try:
        provider = detect_provider(args.provider)
    except (RuntimeError, ValueError) as exc:
        print(f"power provider unavailable: {exc}", file=sys.stderr)
        return 2

    sim, _steps = build_simulation(JobSpec(benchmark=args.experiment, n_atoms=args.atoms))
    tracer = Tracer(capacity=args.capacity)
    metrics = MetricsRegistry()
    sim.attach_tracer(tracer)
    sim.attach_metrics(metrics)
    # No --backend here: the build takes the environment's default, and
    # the record says so.
    requested = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    resolved = sim.backend.name
    print(f"built {args.experiment}: {sim.system.n_atoms} atoms, "
          f"backend {resolved}; power provider "
          f"{provider.name} ({provider.kind})")
    if args.warmup:
        sim.run(args.warmup)
    tracer.reset()

    sampler = TelemetrySampler(
        provider, period_s=args.period, metrics=metrics
    )
    chunk = max(1, min(args.report_every, args.steps))
    print(f"running {args.steps} steps, sampling every {args.period:g} s ...")
    done = 0
    sampler.start()
    try:
        while done < args.steps:
            n = min(chunk, args.steps - done)
            sim.run(RunConfig(steps=n, reset_timers=done == 0))
            done += n
            sample = sampler.sample_now()
            print(f"  step {done:>6d}/{args.steps}: {sample.watts:7.2f} W, "
                  f"{sampler.total_joules:9.2f} J cumulative", flush=True)
    finally:
        sampler.stop()

    attribution = attribute_energy(sampler.samples, tracer.records())
    duration = sampler.duration_s
    ts_per_s = args.steps / duration if duration > 0 else 0.0
    watts = sampler.mean_watts
    print()
    print(render_energy_table(attribution, steps=args.steps))
    print()
    print(f"throughput:        {ts_per_s:10.3f} TS/s over {duration:.2f} s")
    print(f"mean power:        {watts:10.2f} W ({provider.name}, {provider.kind})")
    print(f"energy efficiency: {ts_per_s / watts if watts else 0.0:10.4f} TS/s/W")
    print(f"energy per step:   "
          f"{sampler.total_joules / args.steps:10.3f} J/step")
    if sampler.under_sampled:
        print(f"NOTE: run lasted {duration:.2f} s < "
              f"{sampler.min_run_seconds:.0f} s — under-sampled; do not "
              "compare these numbers across runs")

    if args.trace:
        path = tracer.write_chrome_trace(
            Path(args.trace), process_name=f"repro:power:{args.experiment}"
        )
        print(f"wrote {path}")
    if args.json:
        from repro.report import make_report, platform_info

        report = make_report(
            "power",
            backend={"requested": requested, "resolved": resolved},
            precision="double",
            energy={"provider": provider.name, "kind": provider.kind},
            platform=platform_info(**platform_provenance()),
            experiment=args.experiment,
            n_atoms=sim.system.n_atoms,
            steps=args.steps,
            warmup=args.warmup,
            duration_s=duration,
            ts_per_s=ts_per_s,
            mean_watts=watts,
            joules=sampler.total_joules,
            joules_per_step=sampler.total_joules / args.steps,
            ts_per_s_per_watt=ts_per_s / watts if watts else 0.0,
            sampling=sampler.provenance(),
            attribution=attribution.to_json(),
        )
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    return 0
