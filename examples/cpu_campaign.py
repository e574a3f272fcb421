"""The CPU-instance characterization campaign (Figures 3-6).

Replays Section 5 of the paper on the simulated dual-socket Xeon 8358:
task breakdowns, MPI overhead/imbalance, MPI function breakdowns, and
the performance / energy-efficiency / parallel-efficiency triple, for
all five benchmarks, four sizes and seven rank counts.  Results are
also written to ``runs.csv`` in the authors' artifact layout.

Run:  python examples/cpu_campaign.py [output_dir]
"""

import sys
from pathlib import Path

from repro.figures import fig03, fig04, fig05, fig06
from repro.model.framework import ExperimentSpec, Mode, RunsTable, run_experiment
from repro.model.workloads import RANK_COUNTS, SIZES_K
from repro.suite import CPU_BENCHMARKS


def run_campaign(output_dir: Path) -> None:
    print("Simulating the CPU campaign "
          f"({len(CPU_BENCHMARKS)} benchmarks x {len(SIZES_K)} sizes x "
          f"{len(RANK_COUNTS)} rank counts)...")
    table = RunsTable()
    for bench in CPU_BENCHMARKS:
        for size in SIZES_K:
            for ranks in RANK_COUNTS:
                spec = ExperimentSpec(
                    bench, "cpu", size, ranks, mode=Mode.PROFILING
                )
                table.add(run_experiment(spec))
    csv_path = output_dir / "lammps" / "runs.csv"
    table.to_csv(csv_path)
    print(f"wrote {len(table)} runs to {csv_path}\n")

    # Condensed figure renderings (full tables in EXPERIMENTS.md).
    print(fig06.generate(sizes_k=(32, 2048), ranks=(1, 16, 64)).render())
    print()
    print(fig03.generate(sizes_k=(2048,), ranks=(1, 64)).render())
    print()
    print(fig04.generate(sizes_k=(32, 2048), ranks=(16, 64)).render())
    print()
    print(fig05.generate(benchmarks=("lj", "rhodo"), sizes_k=(32, 2048),
                         ranks=(16, 64)).render())


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("campaign_output")
    run_campaign(out)
