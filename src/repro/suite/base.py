"""Benchmark definition scaffolding: taxonomy + builder + model hooks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.md.simulation import Simulation

__all__ = ["Taxonomy", "BenchmarkDefinition"]


@dataclass(frozen=True)
class Taxonomy:
    """One row of the paper's Table 2 ("Experiments Taxonomy").

    Distances are in the experiment's own units (Angstrom or sigma);
    ``neighbors_per_atom`` is the Table 2 value, which the functional
    engine reproduces from geometry (see ``tests/test_table2.py``).
    """

    name: str
    min_atoms: int
    force_field: str
    cutoff: float
    cutoff_units: str
    neighbor_skin: float
    neighbors_per_atom: int
    integration: str
    pair_modify_mix: str | None = None
    kspace_style: str | None = None
    kspace_error: float | None = None

    @property
    def computes_long_range(self) -> bool:
        return self.kspace_style is not None


@dataclass(frozen=True)
class BenchmarkDefinition:
    """A suite benchmark: its taxonomy and functional builder.

    ``build`` returns a functional :class:`Simulation` with roughly
    ``n_atoms`` particles (builders round to their lattice geometry).
    Engine-facing facts live here:

    * ``newton`` — whether Newton's third law halves the pair work
      (False only for Chute, per Section 3);
    * ``timestep_fs`` — physical timestep granularity, used to convert
      TS/s into ns/day for the paper's headline numbers;
    * ``gpu_supported`` — the reference GPU package lacks the
      gran/hooke/history pair style, so Chute is CPU-only (Section 6).

    These and the taxonomy are the only statement of each benchmark's
    Table-2 facts: :mod:`repro.model.workloads` reads them from
    here and adds only the model's own parameters (cost factors,
    imbalance amplitudes, topology densities).
    """

    taxonomy: Taxonomy
    build: Callable[..., Simulation]
    newton: bool = True
    timestep_fs: float = 5.0
    gpu_supported: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.taxonomy.name
