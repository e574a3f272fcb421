"""A functional molecular-dynamics engine (the "LAMMPS" substrate).

This package implements, from scratch and in numpy, every MD ingredient
the paper's benchmark suite exercises: periodic boxes, neighbor lists
with skin, the pairwise/many-body/bonded/long-range force fields of
Table 2, NVE/NVT/NPT integration, SHAKE constraints, and the Figure 1
timestep loop with the Table 1 task breakdown.

See :mod:`repro.suite` for the five ready-made benchmark experiments and
:mod:`repro.model` for the calibrated performance layer that maps
this engine's operation counts onto the paper's CPU/GPU instances.
"""

from repro.md.atoms import AtomSystem, Topology
from repro.md.bonded import CosineDihedral, FENEBond, HarmonicAngle, HarmonicBond
from repro.md.box import Box
from repro.md.config import RunConfig
from repro.md.computes import (
    MeanSquaredDisplacement,
    RadialDistribution,
    VelocityAutocorrelation,
)
from repro.md.constraints import ShakeConstraints
from repro.md.deck import DeckError, parse_deck, run_deck
from repro.md.dump import XyzDumpWriter
from repro.md.fixes import (
    BerendsenThermostat,
    BottomWall,
    Gravity,
    LangevinThermostat,
    VelocityRescale,
)
from repro.md.integrators import NoseHooverNPT, NoseHooverNVT, VelocityVerletNVE
from repro.md.kernels import KernelBackend, available_backends, get_backend
from repro.md.kspace import PPPM, EwaldSummation
from repro.md.minimize import minimize
from repro.md.neighbor import NeighborList
from repro.md.potentials import (
    CharmmCoulLong,
    EAMAlloy,
    EAMParameters,
    HookeHistory,
    LennardJonesCut,
)
from repro.md.precision import (
    Precision,
    PrecisionPolicy,
    parse_precision,
    policy_for,
)
from repro.md.restart import load_system, restore_simulation, save_snapshot
from repro.md.simulation import Simulation
from repro.md.thermo import ThermoLog
from repro.md.timers import TASKS, TaskTimers

__all__ = [
    "AtomSystem",
    "Topology",
    "Box",
    "NeighborList",
    "Simulation",
    "RunConfig",
    "Precision",
    "PrecisionPolicy",
    "parse_precision",
    "policy_for",
    "TaskTimers",
    "TASKS",
    "ThermoLog",
    "VelocityVerletNVE",
    "NoseHooverNVT",
    "NoseHooverNPT",
    "ShakeConstraints",
    "LangevinThermostat",
    "Gravity",
    "BottomWall",
    "LennardJonesCut",
    "CharmmCoulLong",
    "EAMAlloy",
    "EAMParameters",
    "HookeHistory",
    "FENEBond",
    "HarmonicBond",
    "HarmonicAngle",
    "CosineDihedral",
    "EwaldSummation",
    "PPPM",
    "BerendsenThermostat",
    "VelocityRescale",
    "RadialDistribution",
    "MeanSquaredDisplacement",
    "VelocityAutocorrelation",
    "XyzDumpWriter",
    "minimize",
    "parse_deck",
    "run_deck",
    "DeckError",
    "save_snapshot",
    "load_system",
    "restore_simulation",
    "KernelBackend",
    "get_backend",
    "available_backends",
]
