"""Simulated MPI execution on the CPU instance.

* :mod:`repro.model.cpu.mpi_model` — per-function MPI time accounting
  (Init/Send/Sendrecv/Wait/Waitany/Allreduce/others) and the per-rank
  imbalance model;
* :mod:`repro.model.cpu.executor` — the simulated CPU-instance run that
  Figures 3-6 and 10-12/14-15 are generated from, and the per-rank
  recipe the other modeled executors share;
* :mod:`repro.model.cpu.openmp` and :mod:`repro.model.cpu.multinode` —
  the hybrid MPI+OpenMP and multi-node variants the studies use.

The geometry comes from the real engine's
:mod:`repro.parallel.decomposition`.
"""
