"""Shared (memoized) campaign execution for the figure generators.

Most figures slice the same sweep — five benchmarks x four sizes x the
resource ladder — so records are cached per spec, letting the sixteen
figure modules (and the benchmark harness that runs them all) share one
simulated campaign.
"""

from __future__ import annotations

from repro.model.framework.experiment import ExperimentSpec, Mode
from repro.model.framework.runner import RunRecord, run_experiment
from repro.model.workloads import GPU_COUNTS, RANK_COUNTS, SIZES_K

__all__ = [
    "cached_run",
    "clear_cache",
    "SIZES_K",
    "RANK_COUNTS",
    "GPU_COUNTS",
    "ERROR_THRESHOLDS",
]

#: The Section 7 k-space error sweep.
ERROR_THRESHOLDS: tuple[float, ...] = (1e-4, 1e-5, 1e-6, 1e-7)

_CACHE: dict[ExperimentSpec, RunRecord] = {}


def cached_run(spec: ExperimentSpec) -> RunRecord:
    """Run (or recall) one experiment; profiling mode is always used so
    every record carries the breakdowns any figure might need."""
    spec = spec.with_mode(Mode.PROFILING)
    if spec not in _CACHE:
        _CACHE[spec] = run_experiment(spec)
    return _CACHE[spec]


def clear_cache() -> None:
    """Drop all memoized runs (benchmark timing uses this per round)."""
    _CACHE.clear()
