"""Derived performance metrics (Section 5.2 definitions).

* performance: timesteps per second (TS/s) — the paper's standard
  metric, independent of each experiment's timestep granularity;
* energy efficiency: TS/s per watt;
* parallel efficiency: ``P_n / (P_1 * n)`` with ``P_n`` the performance
  on ``n`` resources;
* ns/day: simulated time per wall-clock day, given the physical
  timestep (used for the Section 10 headline numbers).
"""

from __future__ import annotations

import math
__all__ = [
    "parallel_efficiency",
    "energy_efficiency",
    "ns_per_day",
    "timesteps_for_runtime",
]

SECONDS_PER_DAY = 86_400.0


def parallel_efficiency(p_n: float, p_1: float, n: int) -> float:
    """``P_n / (P_1 * n)`` — Section 5.2's definition."""
    if p_1 <= 0 or n < 1:
        raise ValueError("p_1 must be positive and n >= 1")
    return p_n / (p_1 * n)


def energy_efficiency(ts_per_s: float, watts: float) -> float:
    """Timesteps per second per watt (Figure 6/9 middle rows)."""
    if watts <= 0:
        raise ValueError("watts must be positive")
    return ts_per_s / watts


def ns_per_day(ts_per_s: float, timestep_fs: float) -> float:
    """Simulated nanoseconds per day of wall clock."""
    if ts_per_s < 0 or timestep_fs <= 0:
        raise ValueError("ts_per_s >= 0 and timestep_fs > 0 required")
    return ts_per_s * timestep_fs * 1e-6 * SECONDS_PER_DAY


def timesteps_for_runtime(ts_per_s: float, min_runtime_s: float) -> int:
    """Steps needed so a run lasts at least ``min_runtime_s``.

    The methodology sets "each benchmark to run enough timesteps to
    reach a run time of at least ten seconds" so the 0.5 s power
    sampler collects enough points (Section 4.2).
    """
    if ts_per_s <= 0 or min_runtime_s <= 0:
        raise ValueError("ts_per_s and min_runtime_s must be positive")
    return max(1, math.ceil(ts_per_s * min_runtime_s))
