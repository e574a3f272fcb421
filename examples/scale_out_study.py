"""Scale-out vs single-node study (the paper's Section 4.1 argument).

The paper motivates single-node characterization by the rapid
inefficiency of multi-node strong scaling — "33% parallel efficiency
for LJ on Haswell with 64 nodes" — and by weak memory utilization when
small subdomains are spread over many hosts.  This example reproduces
that contrast: single-node strong scaling, multi-node strong scaling,
and the weak-scaling view prior work reported.

Run:  python examples/scale_out_study.py
"""

from repro.model import simulate_cpu_run
from repro.model.cpu.multinode import simulate_multinode_run
from repro.model.framework.tables import render_table
from repro.model.workloads import get_workload
from repro.studies.weak_scaling import weak_scaling_study


def single_node() -> None:
    print("--- Single-node strong scaling (this paper's focus) ---")
    rows = []
    base = simulate_cpu_run("lj", 2_048_000, 1)
    for ranks in (1, 8, 32, 64):
        r = simulate_cpu_run("lj", 2_048_000, ranks)
        rows.append([ranks, f"{r.ts_per_s:.1f}",
                     f"{100 * r.ts_per_s / (base.ts_per_s * ranks):.1f}%"])
    print(render_table(["ranks", "TS/s", "parallel eff"], rows))
    print()


def multi_node() -> None:
    print("--- Multi-node strong scaling (LJ, 2048k atoms) ---")
    base = simulate_multinode_run("lj", 2_048_000, 1)
    rows = []
    for nodes in (1, 2, 8, 16, 64):
        r = simulate_multinode_run("lj", 2_048_000, nodes)
        eff = 100 * r.ts_per_s / (base.ts_per_s * nodes)
        rows.append([nodes, r.total_ranks, f"{r.ts_per_s:.0f}", f"{eff:.1f}%"])
    print(render_table(["nodes", "total ranks", "TS/s", "parallel eff"], rows))
    print("(the paper quotes ~33% at 64 nodes for LJ)\n")


def memory_argument() -> None:
    print("--- The memory argument (Section 4.1) ---")
    w = get_workload("rhodo")
    footprint = w.memory_bytes(2_048_000) / 1e9
    print(f"biggest experiment: {footprint:.1f} GB resident "
          "(the CPU instance has 1024 GB)")
    print("spreading it over 64 nodes leaves each node's DRAM ~0.04% used\n")


def weak_scaling_contrast() -> None:
    print("--- Weak scaling (what prior work showed) ---")
    rows = [
        [p.n_ranks, f"{p.n_atoms // 1000}k", f"{100 * p.weak_efficiency:.1f}%"]
        for p in weak_scaling_study("lj")
    ]
    print(render_table(["ranks", "atoms", "weak efficiency"], rows))


if __name__ == "__main__":
    single_node()
    multi_node()
    memory_argument()
    weak_scaling_contrast()
