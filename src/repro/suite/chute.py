"""The "Chute" benchmark: granular chute flow (``bench/in.chute``).

Table 2 row: ``gran/hooke/history`` frictional potential, cutoff
1.0 sigma (one particle diameter), skin 0.1 sigma, 7 neighbors/atom,
NVE integration.  Two properties single it out in the paper:

* it does **not** leverage Newton's third law (Section 3), so the pair
  work counts both directions;
* the reference GPU package lacks the pair style, so it is excluded
  from the GPU characterization (Section 6).
"""

from __future__ import annotations

import math

from repro.md.fixes import BottomWall, Gravity
from repro.md.lattice import chute_system
from repro.md.potentials.granular import HookeHistory
from repro.md.simulation import Simulation
from repro.suite.base import BenchmarkDefinition, Taxonomy

__all__ = ["TAXONOMY", "DEFINITION", "build"]

TAXONOMY = Taxonomy(
    name="chute",
    min_atoms=32_000,
    force_field="gran/hooke/history",
    cutoff=1.0,
    cutoff_units="sigma",
    neighbor_skin=0.1,
    neighbors_per_atom=7,
    integration="NVE",
)

_DT = 1e-4  # the LAMMPS deck's granular timestep


def build(n_atoms: int = 480, seed: int = 999) -> Simulation:
    """Packed granular bed flowing down a 26-degree chute."""
    # Bed aspect ratio ~ LAMMPS chute: wide in x/y, a few layers deep.
    layers = 4
    side = max(2, round(math.sqrt(n_atoms / layers)))
    system = chute_system(side, side, layers, seed=seed)
    potential = HookeHistory(
        k_n=200_000.0, gamma_n=50.0, mu=0.5, dt=_DT, max_radius=0.5
    )
    sim = Simulation(
        system,
        [potential],
        fixes=[Gravity(magnitude=1.0, chute_angle_deg=26.0), BottomWall()],
        dt=_DT,
        skin=TAXONOMY.neighbor_skin,
    )
    # The bed is a few layers deep: worker subdomains tile x/y only.
    sim.quasi_2d = True
    return sim


DEFINITION = BenchmarkDefinition(
    taxonomy=TAXONOMY,
    build=build,
    newton=False,
    timestep_fs=1.0,  # nominal; granular time units are not femtoseconds
    gpu_supported=False,
)
