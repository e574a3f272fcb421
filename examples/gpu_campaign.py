"""The GPU-instance characterization campaign (Figures 7-9).

Replays Section 6 on the simulated 8xV100 node: per-task breakdowns,
the CUDA kernel / data-movement profile, and multi-device strong
scaling — including the paper's headline findings that data movement
dominates device activity and that multi-GPU parallel efficiency
collapses well below the CPU instance's.

Run:  python examples/gpu_campaign.py
"""

from repro.figures import fig07, fig08, fig09
from repro.md.timers import fractions
from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.model.framework.tables import render_breakdown


def main() -> None:
    print(fig09.generate(sizes_k=(32, 2048)).render())
    print()
    print(fig07.generate(sizes_k=(2048,), gpus=(1, 8)).render())
    print()
    print(fig08.generate(benchmarks=("rhodo",), sizes_k=(864, 2048), gpus=(8,)).render())
    print()

    print("Kernel/data-movement profile, LJ 2048k on 8 GPUs:")
    r = simulate_gpu_run("lj", 2_048_000, 8)
    print(render_breakdown(fractions(r.kernel_seconds)))
    print()

    print("Strong-scaling summary at 2048k atoms (parallel efficiency %):")
    for bench in ("lj", "chain", "eam", "rhodo"):
        g1 = simulate_gpu_run(bench, 2_048_000, 1)
        g8 = simulate_gpu_run(bench, 2_048_000, 8)
        c1 = simulate_cpu_run(bench, 2_048_000, 1)
        c64 = simulate_cpu_run(bench, 2_048_000, 64)
        gpu_eff = 100 * g8.ts_per_s / (g1.ts_per_s * 8)
        cpu_eff = 100 * c64.ts_per_s / (c1.ts_per_s * 64)
        print(f"  {bench:<6s}  GPU 8-dev: {gpu_eff:5.1f}%   CPU 64-rank: {cpu_eff:5.1f}%")
    print()
    r = simulate_gpu_run("rhodo", 2_048_000, 8)
    print(f"rhodopsin 2M atoms, 8 GPUs: {r.ts_per_s:.1f} TS/s, "
          f"avg GPU utilization {100 * r.gpu_utilization:.0f}% "
          "(paper: ~30%)")


if __name__ == "__main__":
    main()
