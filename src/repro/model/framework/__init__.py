"""The experiment-automation framework (the paper's Figure 2).

The paper's methodology (Section 4.2) is an open-source framework that,
for each experiment, takes an executable + settings, runs it in either
**benchmarking** mode (performance + power via powerstat / nvidia-smi)
or **profiling** mode (VTune / NSight), logs the data, and aggregates it
into formatted output.  This package is that framework, driving the
simulated platforms:

* :mod:`~repro.model.framework.experiment` — experiment specifications
  and sweeps;
* :mod:`~repro.model.framework.runner` — mode A (profiling) / mode B
  (benchmarking) execution producing
  :class:`~repro.model.framework.runner.RunRecord` rows;
* :mod:`~repro.model.framework.aggregator` — the ``runs.csv`` store and
  queries;
* :mod:`~repro.model.framework.efficiency` — TS/s, TS/s/W, parallel
  efficiency, ns/day;
* :mod:`~repro.model.framework.tables` — formatted text tables (the
  "visualizer").
"""

from repro.model.framework.aggregator import RunsTable
from repro.model.framework.efficiency import (
    ns_per_day,
    parallel_efficiency,
    timesteps_for_runtime,
)
from repro.model.framework.experiment import ExperimentSpec, Mode, sweep
from repro.model.framework.runner import RunRecord, run_experiment

__all__ = [
    "ExperimentSpec",
    "Mode",
    "sweep",
    "run_experiment",
    "RunRecord",
    "RunsTable",
    "parallel_efficiency",
    "ns_per_day",
    "timesteps_for_runtime",
]
