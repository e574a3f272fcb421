"""repro — reproduction of "Characterizing Molecular Dynamics Simulation
on Commodity Platforms" (Peverelli et al., IISWC 2022).

The library answers the paper twice, on either side of one boundary:

1. a **functional MD engine** (:mod:`repro.md`) implementing, from
   scratch in numpy, all the physics the paper's five LAMMPS benchmarks
   exercise — LJ melt, FENE polymer chains, EAM copper, granular chute
   flow, and a solvated-biomolecule proxy with PPPM electrostatics,
   SHAKE constraints and NPT integration (packaged as the ready-made
   suite in :mod:`repro.suite`), run serially or on the shared-memory
   parallel engine (:mod:`repro.parallel`);
2. a **calibrated performance model** of the paper's two cloud nodes
   (:mod:`repro.model`: simulated single-node MPI and multi-GPU offload
   driven by the Figure 2 automation framework), regenerating every
   table and figure of the evaluation (:mod:`repro.figures`).

The model imports the engine, never the reverse, so importing the
engine or the batch service built on it loads none of the model.

Quickstart::

    from repro.suite import get_benchmark
    sim = get_benchmark("lj").build(500)
    sim.run(100)
    print(sim.task_breakdown())

    from repro.model import simulate_cpu_run
    print(simulate_cpu_run("rhodo", 2_048_000, 64).ts_per_s)
"""

from repro.suite import get_benchmark, registry

__version__ = "1.0.0"

__all__ = [
    "get_benchmark",
    "registry",
    "__version__",
]
