"""The real single-node parallel engine.

LAMMPS parallelizes by spatial decomposition (Section 2.2): the box is
split into one subdomain per MPI rank, each rank computes its timestep
and exchanges ghost-atom positions/forces with its neighbours.  This
package runs that structure for real, over the numpy engine:

* :mod:`repro.parallel.decomposition` — LAMMPS-style processor grids;
* :mod:`repro.parallel.engine` (with :mod:`~repro.parallel.shm`,
  :mod:`~repro.parallel.halo`, :mod:`~repro.parallel.forces`) — a
  shared-memory multiprocessing force executor that records per-worker
  timelines (see ``docs/SCALING.md``);
* :mod:`repro.parallel.procs` — the supervised worker process (private
  pipe + process sentinel) that the engine and the batch service's job
  pool are both built on.

The modeled MPI ranks of the paper's figures live in
:mod:`repro.model.cpu`, which imports this package, never the reverse.
"""

from repro.parallel.decomposition import proc_grid
from repro.parallel.engine import ParallelEngineError, ParallelForceExecutor
from repro.parallel.forces import DomainLists, OwnerRows
from repro.parallel.halo import LocalIndex, assign_owners
from repro.parallel.shm import SharedArray, ShmArena

__all__ = [
    "proc_grid",
    "ParallelForceExecutor",
    "ParallelEngineError",
    "ShmArena",
    "SharedArray",
    "LocalIndex",
    "assign_owners",
    "DomainLists",
    "OwnerRows",
]
