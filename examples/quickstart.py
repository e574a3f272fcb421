"""Quickstart: run a real MD benchmark, then model it at paper scale.

Two layers in one script:

1. the functional engine actually simulates a small LJ melt (the
   ``in.lj`` deck) and prints its thermodynamics and the Table 1 task
   breakdown of the run;
2. the calibrated performance model evaluates the same benchmark at the
   paper's 2-million-atom scale on the simulated Xeon 8358 node and
   8xV100 node.

Run:  python examples/quickstart.py
"""

from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.model.framework.tables import render_breakdown, render_table
from repro.suite import get_benchmark


def run_functional_lj() -> None:
    print("=" * 68)
    print("1. Functional engine: 500-atom LJ melt, 200 velocity-Verlet steps")
    print("=" * 68)
    sim = get_benchmark("lj").build(500)
    sim.setup()
    e0 = sim.total_energy()
    sim.run(200)
    e1 = sim.total_energy()

    print(f"atoms:               {sim.system.n_atoms}")
    print(f"neighbors/atom:      {sim.neighbor.stats.last_neighbors_per_atom:.1f}"
          "   (Table 2 says 55)")
    print(f"energy drift:        {abs(e1 - e0) / abs(e0):.2e} over 200 steps")
    print(f"temperature:         {sim.system.temperature():.3f}")
    print(f"neighbor rebuilds:   {sim.counts.neighbor_builds}")
    print()
    print(render_breakdown(sim.task_breakdown(), title="Task breakdown (measured):"))
    print()


def model_paper_scale() -> None:
    print("=" * 68)
    print("2. Performance model: LJ with 2,048k atoms on the paper's nodes")
    print("=" * 68)
    rows = []
    for ranks in (1, 8, 64):
        r = simulate_cpu_run("lj", 2_048_000, ranks)
        rows.append([f"CPU, {ranks} ranks", f"{r.ts_per_s:.1f}",
                     f"{r.power_watts:.0f}", f"{r.energy_efficiency:.3f}"])
    for gpus in (1, 8):
        g = simulate_gpu_run("lj", 2_048_000, gpus)
        rows.append([f"GPU, {gpus} device(s)", f"{g.ts_per_s:.1f}",
                     f"{g.power_watts:.0f}", f"{g.energy_efficiency:.3f}"])
    print(render_table(["configuration", "TS/s", "watts", "TS/s/W"], rows))
    print()
    r = simulate_cpu_run("rhodo", 2_048_000, 64)
    g = simulate_gpu_run("rhodo", 2_048_000, 8)
    print("Headline (Section 10): rhodopsin 2M atoms at a 2 fs timestep:")
    print(f"  CPU node: {r.ns_per_day(2.0):.2f} ns/day   (paper: ~2.0)")
    print(f"  GPU node: {g.ns_per_day(2.0):.2f} ns/day   (paper: ~2.8)")


if __name__ == "__main__":
    run_functional_lj()
    model_paper_scale()
