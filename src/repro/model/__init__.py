"""The calibrated performance model of LAMMPS on the paper's two nodes.

Nothing here runs MD.  The functional engine (:mod:`repro.md`,
:mod:`repro.parallel`) and the suite supply *what* work a timestep does
(pair interactions, rebuild cadence, grid sizes, the Table-1 task
names); this package maps that work onto the paper's hardware (Table 3)
through per-task cost laws whose coefficients are calibrated against the
paper's quoted anchor numbers:

* :mod:`~repro.model.workloads`, :mod:`~repro.model.costs`,
  :mod:`~repro.model.precision` and :mod:`~repro.model.calibration` —
  per-benchmark model parameters, the CPU cost laws, the precision
  factors and the paper's anchors;
* :mod:`repro.model.platforms` — the Table 3 instances and their power
  models;
* :mod:`repro.model.cpu` — simulated single-node MPI (plus the OpenMP
  and multi-node variants) behind Figures 3-6, 10-12 and 14-15;
* :mod:`repro.model.gpu` — simulated multi-GPU offload behind Figures
  7-9, 13 and 16;
* :mod:`repro.model.framework` — the Figure 2 experiment framework that
  sweeps both into ``runs.csv``.

The import rule is one-way: the model imports the engine, the engine
never imports the model (``tests/test_model_boundary.py``).
"""

# The framework first: its runner imports both executors.
from repro.model.framework import ExperimentSpec, Mode, RunsTable, run_experiment, sweep
from repro.model.cpu.executor import CpuRunResult, simulate_cpu_run
from repro.model.cpu.mpi_model import MPI_FUNCTIONS, MpiModel, MpiTimes
from repro.model.gpu import simulate_gpu_run

__all__ = [
    "simulate_cpu_run",
    "CpuRunResult",
    "simulate_gpu_run",
    "ExperimentSpec",
    "Mode",
    "sweep",
    "run_experiment",
    "RunsTable",
    "MpiModel",
    "MpiTimes",
    "MPI_FUNCTIONS",
]
