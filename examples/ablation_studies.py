"""Ablations of the design choices the paper's setup fixes.

Five studies (see ``repro.studies``): the neighbor-skin trade-off, what
Chute loses without Newton's third law, the ranks-per-GPU tuning behind
the paper's 48-rank remark, the weak-scaling view prior work reported,
and the ``-DFFT_SINGLE`` build flag.

Run:  python examples/ablation_studies.py
"""

from repro.model.framework.tables import render_table
from repro.studies.fft_precision import fft_precision_study
from repro.studies.gpu_ranks import best_total_ranks, gpu_rank_tuning_study
from repro.studies.newton import newton_ablation
from repro.studies.skin import optimal_skin, skin_sweep_functional, skin_sweep_model
from repro.studies.weak_scaling import weak_scaling_study


def skin_study() -> None:
    print("--- Neighbor-skin trade-off (LJ) ---")
    model_points = skin_sweep_model()
    rows = [
        [p.skin, f"{p.rebuild_every:.1f}", f"{p.stored_pairs_per_atom:.1f}",
         f"{p.step_seconds * 1e3:.1f}"]
        for p in model_points
    ]
    print(render_table(
        ["skin [sigma]", "rebuild every", "pairs/atom", "step [ms] (2048k, model)"],
        rows,
    ))
    print(f"model optimum: skin = {optimal_skin(model_points)} "
          "(Table 2 uses 0.3)\n")

    engine_points = skin_sweep_functional("lj", n_atoms=300, skins=(0.1, 0.3, 0.6))
    rows = [
        [p.skin, f"{p.rebuild_every:.1f}", f"{p.stored_pairs_per_atom:.1f}"]
        for p in engine_points
    ]
    print(render_table(
        ["skin [sigma]", "rebuild every (measured)", "pairs/atom (measured)"], rows,
        title="Functional-engine confirmation (300 atoms, 150 steps):",
    ))
    print()


def newton_study() -> None:
    print("--- Newton's third law for Chute (paper runs it off) ---")
    rows = [
        [f"{c.n_atoms // 1000}k", c.n_ranks, f"{c.ts_newton_off:.0f}",
         f"{c.ts_newton_on:.0f}", f"{c.speedup_from_newton:.2f}x"]
        for c in newton_ablation()
    ]
    print(render_table(
        ["atoms", "ranks", "TS/s newton off", "TS/s newton on", "gain"], rows
    ))
    print("the halved pair work wins when compute-bound; the extra reverse\n"
          "exchange eats the gain for small, communication-bound runs.\n")


def gpu_rank_study() -> None:
    print("--- Ranks-per-GPU tuning (Section 6.2's 48-rank remark) ---")
    points = gpu_rank_tuning_study()
    rows = [
        [p.total_ranks, p.ranks_per_gpu, f"{p.ts_per_s:.1f}",
         f"{100 * p.gpu_utilization:.0f}%"]
        for p in points
    ]
    print(render_table(["total ranks", "ranks/GPU", "TS/s", "GPU util"], rows))
    print(f"best budget: {best_total_ranks(points)} total ranks "
          "(paper: no more than 48 beneficial)\n")


def weak_scaling() -> None:
    print("--- Weak scaling (the prior-work view, 32k atoms/rank) ---")
    rows = [
        [p.n_ranks, f"{p.n_atoms // 1000}k", f"{100 * p.weak_efficiency:.1f}%"]
        for p in weak_scaling_study("lj")
    ]
    print(render_table(["ranks", "atoms", "weak efficiency"], rows))
    print()


def fft_flag() -> None:
    print("--- The -DFFT_SINGLE build flag (Section 4.3) ---")
    rows = [
        [f"{p.kspace_error:.0e}", f"{p.ts_fft_single:.2f}",
         f"{p.ts_fft_double:.2f}", f"{p.slowdown:.2f}x"]
        for p in fft_precision_study()
    ]
    print(render_table(
        ["threshold", "TS/s (FFT single)", "TS/s (FFT double)", "single's gain"],
        rows,
    ))


if __name__ == "__main__":
    skin_study()
    newton_study()
    gpu_rank_study()
    weak_scaling()
    fft_flag()
