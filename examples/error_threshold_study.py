"""The k-space error-threshold sensitivity study (Section 7).

Sweeps the PPPM relative force-error threshold from the 1e-4 baseline
down to 1e-7 for Rhodopsin on both instances (Figures 10-14), and shows
the *mechanism* with the functional engine: the LAMMPS-style accuracy
machinery grows the FFT grid, whose cost the model then pays — mildly
on the CPU (the FFT stays local) and catastrophically on the GPU (the
grids cross PCIe every step).

Run:  python examples/error_threshold_study.py
"""

from repro.figures import fig10, fig11, fig13, fig14
from repro.md.kspace.error import select_grid
from repro.model.framework.tables import render_table
from repro.model.workloads import get_workload

import numpy as np

THRESHOLDS = (1e-4, 1e-5, 1e-6, 1e-7)


def show_grid_growth() -> None:
    """The mechanism: the error machinery inflates the PPPM grid."""
    w = get_workload("rhodo")
    rows = []
    for n_k in (32, 2048):
        n = n_k * 1000
        for acc in THRESHOLDS:
            alpha, grid = select_grid(
                acc, w.box_lengths(n), w.cutoff, n, w.qsq_per_atom * n,
                two_charge_force=332.06,
            )
            rows.append([
                f"{n_k}k", f"{acc:.0e}", f"{alpha:.3f}",
                "x".join(str(g) for g in grid), f"{np.prod(grid):.2e}",
            ])
    print(render_table(
        ["atoms", "threshold", "alpha", "grid", "points"], rows,
        title="PPPM grid selection (LAMMPS error machinery):",
    ))
    print()


def main() -> None:
    show_grid_growth()
    print(fig10.generate(sizes_k=(2048,), ranks=(1, 16, 64)).render())
    print()
    print(fig11.generate(sizes_k=(2048,), ranks=(2, 64)).render())
    print()
    print(fig13.generate(sizes_k=(2048,), gpus=(1, 8)).render())
    print()
    print(fig14.generate(sizes_k=(32, 2048)).render())
    print()

    d10 = fig10.generate(sizes_k=(2048,), ranks=(1, 64))
    d13 = fig13.generate(sizes_k=(2048,), gpus=(1, 8))
    cpu_ratio = (
        d10.series[(1e-4, 2048, 64)]["ts_per_s"]
        / d10.series[(1e-7, 2048, 64)]["ts_per_s"]
    )
    gpu_ratio = (
        d13.series[(1e-4, 2048, 8)]["ts_per_s"]
        / d13.series[(1e-7, 2048, 8)]["ts_per_s"]
    )
    print(f"1e-4 -> 1e-7 slowdown at 2048k:  CPU {cpu_ratio:.1f}x (paper ~3x), "
          f"GPU {gpu_ratio:.1f}x (paper ~35x)")


if __name__ == "__main__":
    main()
