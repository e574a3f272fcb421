"""Trajectory analysis: structure and dynamics from the real engine.

Contrasts two suite benchmarks with the analysis computes:

* the LJ *melt* is a liquid — its g(r) has a smeared first shell and its
  mean-squared displacement grows (diffusion);
* the EAM *solid* is a crystal — sharp g(r) shells and bounded MSD.

Also writes an extended-XYZ trajectory (readable by OVITO/VMD/ASE) and a
checkpoint, demonstrating the production-run toolchain.

Run:  python examples/trajectory_analysis.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro.md.computes import MeanSquaredDisplacement, RadialDistribution
from repro.md.dump import XyzDumpWriter
from repro.md.restart import save_snapshot
from repro.model.framework.tables import render_table
from repro.suite import get_benchmark


def analyze(benchmark: str, n_atoms: int, steps: int, out_dir: Path):
    sim = get_benchmark(benchmark).build(n_atoms)
    sim.setup()
    sim.run(steps // 2)  # settle first

    writer = XyzDumpWriter(out_dir / f"{benchmark}.xyz", every=25)
    rdf = RadialDistribution(
        r_max=0.45 * float(sim.system.box.lengths.min()), n_bins=60
    )
    msd = MeanSquaredDisplacement(sim.system)
    for step in range(1, steps // 2 + 1):
        sim.step()
        if writer.should_dump(step):
            writer.write_frame(sim.system, step)
        if step % 20 == 0:
            rdf.sample(sim.system)
            msd.sample(sim.system, step * sim.dt)

    save_snapshot(sim, out_dir / f"{benchmark}.npz")
    g = rdf.g_of_r()
    r = rdf.bin_centers
    first_peak = r[np.argmax(g)]
    __, msd_values = msd.series()
    return {
        "benchmark": benchmark,
        "first_peak_r": first_peak,
        "peak_height": g.max(),
        "final_msd": msd_values[-1],
        "frames": writer.frames_written,
    }


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [
        analyze("lj", 500, 400, out_dir),
        analyze("eam", 500, 200, out_dir),
    ]
    rows = [
        [
            r["benchmark"],
            f"{r['first_peak_r']:.2f}",
            f"{r['peak_height']:.1f}",
            f"{r['final_msd']:.3f}",
            r["frames"],
        ]
        for r in results
    ]
    print(render_table(
        ["benchmark", "g(r) peak at", "peak height", "final MSD", "frames dumped"],
        rows,
        title="Liquid (lj) vs crystal (eam):",
    ))
    lj, eam = results
    print()
    print(f"the melt diffuses (MSD {lj['final_msd']:.3f}) while the solid's "
          f"atoms rattle in place (MSD {eam['final_msd']:.3f});")
    print(f"the crystal's g(r) peak ({eam['peak_height']:.1f}) towers over "
          f"the liquid's ({lj['peak_height']:.1f}).")
    print(f"trajectories + checkpoints written under {out_dir}/")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("analysis_output"))
