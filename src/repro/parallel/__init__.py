"""Single-node parallelization: the analytic model and the real engine.

LAMMPS parallelizes by spatial decomposition (Section 2.2): the box is
split into one subdomain per MPI rank, each rank computes its timestep
and exchanges ghost-atom positions/forces with its neighbours.  This
package reproduces that structure twice — analytically and for real:

* :mod:`repro.parallel.decomposition` — LAMMPS-style processor grids and
  subdomain/ghost geometry;
* :mod:`repro.parallel.mpi_model` — per-function MPI time accounting
  (Init/Send/Sendrecv/Wait/Waitany/Allreduce/others) and the per-rank
  imbalance model;
* :mod:`repro.parallel.executor` — the simulated CPU-instance run that
  Figures 3-6 and 10-12/14-15 are generated from;
* :mod:`repro.parallel.engine` (with :mod:`~repro.parallel.shm`,
  :mod:`~repro.parallel.halo`, :mod:`~repro.parallel.forces`) — the
  *measured* counterpart: a shared-memory multiprocessing executor that
  runs the real numpy engine over the same decomposition and records
  per-worker timelines (see ``docs/SCALING.md``);
* :mod:`repro.parallel.procs` — the supervised worker process (private
  pipe + process sentinel) that the engine and the batch service's job
  pool are both built on.
"""

from repro.parallel.decomposition import SubdomainGeometry, proc_grid
from repro.parallel.engine import ParallelEngineError, ParallelForceExecutor
from repro.parallel.executor import CpuRunResult, simulate_cpu_run
from repro.parallel.forces import DomainLists, OwnerRows
from repro.parallel.halo import LocalIndex, assign_owners
from repro.parallel.mpi_model import MPI_FUNCTIONS, MpiModel, MpiTimes
from repro.parallel.shm import SharedArray, ShmArena

__all__ = [
    "proc_grid",
    "SubdomainGeometry",
    "MpiModel",
    "MpiTimes",
    "MPI_FUNCTIONS",
    "simulate_cpu_run",
    "CpuRunResult",
    "ParallelForceExecutor",
    "ParallelEngineError",
    "ShmArena",
    "SharedArray",
    "LocalIndex",
    "assign_owners",
    "DomainLists",
    "OwnerRows",
]
