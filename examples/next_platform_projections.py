"""Section 10's takeaways, quantified: what would each fix buy?

The paper ends with optimization directions for next-generation
commodity platforms.  With both the workload and the platforms modelled,
each direction becomes a knob:

* port the fixes (SHAKE) and bonded terms to the device,
* replace contended PCIe with an NVLink-class interconnect,
* fuse kernels / cut offload synchronization,
* balance the CPU ranks,

plus the introduction's framing question — how far commodity hardware
stays from an Anton-3-class DSA even after all of it.

Run:  python examples/next_platform_projections.py
"""

from repro.model.framework.tables import render_table
from repro.studies.takeaways import (
    GPU_IMPROVEMENTS,
    commodity_fleet_gap,
    dsa_gap,
    project_cpu_balance,
    project_gpu_improvements,
)


def gpu_directions() -> None:
    print("--- GPU-node directions (rhodopsin, 2048k atoms, 8 x V100) ---")
    projections = project_gpu_improvements()
    rows = []
    for improvement in GPU_IMPROVEMENTS:
        m = projections[improvement.name]
        rows.append([
            improvement.name,
            f"{m['ts_per_s']:.1f}",
            f"{m['speedup']:.2f}x",
            f"{m['ns_per_day']:.2f}",
            f"{100 * m['gpu_utilization']:.0f}%",
        ])
    print(render_table(
        ["improvement", "TS/s", "speedup", "ns/day", "GPU util"], rows
    ))
    print()


def cpu_direction() -> None:
    print("--- CPU-node direction: remove the work imbalance ---")
    rows = []
    for bench in ("chute", "chain", "rhodo", "lj", "eam"):
        result = project_cpu_balance(bench)
        rows.append([
            bench,
            f"{result['ts_per_s']:.1f}",
            f"{result['ts_per_s_balanced']:.1f}",
            f"{result['speedup']:.2f}x",
        ])
    print(render_table(
        ["benchmark", "TS/s (as measured)", "TS/s (balanced)", "gain"], rows,
    ))
    print("(Chute — the paper's worst case — has the most to recover)\n")


def the_gap() -> None:
    print("--- How far from a DSA? (the introduction's 1000x) ---")
    projections = project_gpu_improvements()
    base = projections["baseline"]["ns_per_day"]
    best = projections["all-combined"]["ns_per_day"]
    print(f"single 8-GPU node today:      {base:6.2f} ns/day  "
          f"({dsa_gap(base):,.0f}x behind Anton 3)")
    print(f"single node, all fixes:       {best:6.2f} ns/day  "
          f"({dsa_gap(best):,.0f}x behind)")
    fleet = commodity_fleet_gap()
    print(f"512-node commodity fleet:     like-for-like gap {fleet:,.0f}x "
          "(the paper: 'up to 1000x slower than DSAs')")


if __name__ == "__main__":
    gpu_directions()
    cpu_direction()
    the_gap()
