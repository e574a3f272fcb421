"""Force fields / inter-atomic potentials used by the benchmark suite.

One module per family, mirroring the paper's Table 2 "Force field" row:

* :mod:`repro.md.potentials.lj` — Lennard-Jones with cutoff (LJ, Chain);
* :mod:`repro.md.potentials.eam` — embedded-atom many-body metal (EAM);
* :mod:`repro.md.potentials.charmm` — CHARMM-style LJ-switch + long-range
  Coulomb pair part (Rhodopsin);
* :mod:`repro.md.potentials.granular` — Hookean frictional contact with
  tangential history (Chute);
* :mod:`repro.md.potentials.tersoff` — three-body bond-order covalent
  solid (Tersoff silicon).
"""

from repro.md.potentials.base import ForceResult, PairPotential
from repro.md.potentials.charmm import CharmmCoulLong
from repro.md.potentials.eam import EAMAlloy, EAMParameters
from repro.md.potentials.granular import HookeHistory
from repro.md.potentials.lj import LennardJonesCut
from repro.md.potentials.mixing import mix_epsilon, mix_sigma
from repro.md.potentials.soft import SoftRepulsion
from repro.md.potentials.tersoff import Tersoff, TersoffParameters

__all__ = [
    "ForceResult",
    "PairPotential",
    "LennardJonesCut",
    "EAMAlloy",
    "EAMParameters",
    "CharmmCoulLong",
    "HookeHistory",
    "mix_epsilon",
    "mix_sigma",
    "SoftRepulsion",
    "Tersoff",
    "TersoffParameters",
]
