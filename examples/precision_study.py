"""The floating-point precision study (Section 8, Figures 15-16).

LAMMPS normally computes pairwise forces in single precision and
accumulates in double ("mixed"); this study switches the whole pairwise
computation to pure single or pure double on both instances and shows
the paper's finding: the impact depends entirely on how pair-bound each
configuration is (LJ-on-GPU most sensitive, Rhodopsin-on-GPU barely).

Run:  python examples/precision_study.py
"""

from repro.figures import fig15, fig16
from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.model.framework.tables import render_table


def main() -> None:
    print(fig15.generate(sizes_k=(2048,), ranks=(1, 64)).render())
    print()
    print(fig16.generate(sizes_k=(2048,), gpus=(1, 8)).render())
    print()

    rows = []
    for bench in ("lj", "eam", "chain", "rhodo"):
        cpu_s = simulate_cpu_run(bench, 2_048_000, 64, precision="single").ts_per_s
        cpu_d = simulate_cpu_run(bench, 2_048_000, 64, precision="double").ts_per_s
        gpu_s = simulate_gpu_run(bench, 2_048_000, 8, precision="single").ts_per_s
        gpu_d = simulate_gpu_run(bench, 2_048_000, 8, precision="double").ts_per_s
        rows.append([
            bench,
            f"{100 * (1 - cpu_d / cpu_s):.1f}%",
            f"{100 * (1 - gpu_d / gpu_s):.1f}%",
        ])
    print(render_table(
        ["benchmark", "CPU double penalty", "GPU double penalty"],
        rows,
        title="Single -> double slowdown at 2048k atoms "
              "(EAM tracks LJ, Chain tracks Rhodopsin):",
    ))


if __name__ == "__main__":
    main()
