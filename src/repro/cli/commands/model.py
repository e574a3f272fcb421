"""Performance-model commands: ``model-campaign``, ``figure``, ``anchors``.

These run on the *calibrated analytical model* (no MD is executed):
``model-campaign`` sweeps simulated instances into the artifact
layout, ``figure`` regenerates one paper table/figure, ``anchors``
prints the paper-vs-measured scoreboard.  The measured counterpart of
``model-campaign`` is the declarative ``campaign`` command.
"""

from __future__ import annotations

import argparse
import importlib

from repro.cli import command

FIGURES = (
    "table2",
    "table3",
    *(f"fig{n:02d}" for n in range(3, 17)),
    "headline",
)


def _configure_model_campaign(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", choices=("cpu", "gpu"), default="cpu")
    parser.add_argument("--benchmarks", nargs="*", default=None)
    parser.add_argument("--sizes", nargs="*", type=int, default=None,
                        help="system sizes in thousands of atoms")
    parser.add_argument("--resources", nargs="*", type=int, default=None,
                        help="MPI ranks (cpu) or devices (gpu)")
    parser.add_argument("--out", default="campaign_output")


@command(
    "model-campaign",
    "sweep the calibrated performance model (simulated instance)",
    configure=_configure_model_campaign,
)
def _cmd_model_campaign(args: argparse.Namespace) -> int:
    from repro.model.framework.aggregator import RunsTable
    from repro.model.framework.artifact import ArtifactLayout
    from repro.model.framework.experiment import Mode, sweep
    from repro.model.framework.runner import run_experiment
    from repro.model.workloads import GPU_COUNTS, RANK_COUNTS, SIZES_K
    from repro.suite import CPU_BENCHMARKS, GPU_BENCHMARKS

    benchmarks = args.benchmarks or (
        CPU_BENCHMARKS if args.platform == "cpu" else GPU_BENCHMARKS
    )
    resources = args.resources or (
        RANK_COUNTS if args.platform == "cpu" else GPU_COUNTS
    )
    sizes = args.sizes or SIZES_K
    table = RunsTable()
    layout = ArtifactLayout(args.out)
    specs = list(
        sweep(benchmarks, args.platform, sizes, resources, mode=Mode.PROFILING)
    )
    print(f"running {len(specs)} simulated experiments on the "
          f"{args.platform} instance ...")
    for spec in specs:
        record = run_experiment(spec)
        table.add(record)
        layout.write_profile(record)
    written = layout.write_runs(table)
    for platform, path in written.items():
        print(f"wrote {platform} runs to {path}")
    print(f"wrote {len(layout.profile_index())} profile files under {args.out}")
    return 0


def _configure_figure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=FIGURES)


@command(
    "figure",
    "regenerate one table/figure",
    configure=_configure_figure,
)
def _cmd_figure(args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.figures.{args.name}")
    print(module.generate().render())
    return 0


@command("anchors", "paper-vs-measured scoreboard")
def _cmd_anchors(args: argparse.Namespace) -> int:
    from repro.model import simulate_cpu_run, simulate_gpu_run
    from repro.model.calibration import PAPER_ANCHORS as A

    rows = [
        ("rhodo CPU 2048k/64 [TS/s]", A.rhodo_cpu_2048k_64r_ts,
         simulate_cpu_run("rhodo", 2_048_000, 64).ts_per_s),
        ("rhodo CPU 2048k/64 @1e-7 [TS/s]", A.rhodo_cpu_2048k_64r_ts_e7,
         simulate_cpu_run("rhodo", 2_048_000, 64, kspace_error=1e-7).ts_per_s),
        ("lj CPU single [TS/s]", A.lj_cpu_2048k_64r_ts_single,
         simulate_cpu_run("lj", 2_048_000, 64, precision="single").ts_per_s),
        ("lj CPU double [TS/s]", A.lj_cpu_2048k_64r_ts_double,
         simulate_cpu_run("lj", 2_048_000, 64, precision="double").ts_per_s),
        ("rhodo GPU 2048k/8 [TS/s]", A.rhodo_gpu_2048k_8g_ts,
         simulate_gpu_run("rhodo", 2_048_000, 8).ts_per_s),
        ("rhodo GPU @1e-7 [TS/s]", A.rhodo_gpu_2048k_8g_ts_e7,
         simulate_gpu_run("rhodo", 2_048_000, 8, kspace_error=1e-7).ts_per_s),
        ("lj GPU single [TS/s]", A.lj_gpu_2048k_8g_ts_single,
         simulate_gpu_run("lj", 2_048_000, 8, precision="single").ts_per_s),
        ("rhodo CPU [ns/day]", A.rhodo_cpu_ns_per_day,
         simulate_cpu_run("rhodo", 2_048_000, 64).ns_per_day(2.0)),
        ("rhodo GPU [ns/day]", A.rhodo_gpu_ns_per_day,
         simulate_gpu_run("rhodo", 2_048_000, 8).ns_per_day(2.0)),
    ]
    print(f"{'anchor':<36s} {'paper':>8s} {'measured':>9s} {'delta':>7s}")
    print("-" * 64)
    for name, paper, measured in rows:
        delta = 100.0 * (measured - paper) / paper
        print(f"{name:<36s} {paper:>8.2f} {measured:>9.2f} {delta:>+6.1f}%")
    return 0
