"""Neighbor-skin ablation: rebuild cadence vs per-step pair work.

Section 2 of the paper: "a larger skin distance requires checking more
particles for possible interactions at each timestep, but allows
rebuilding neighbor lists less often."  Table 2 fixes one skin per
benchmark; this study sweeps it.

Two views:

* :func:`skin_sweep_functional` — run the *real* engine and measure the
  rebuild cadence and stored-pair count directly;
* :func:`skin_sweep_model` — evaluate the cost model at production
  scale, deriving the rebuild cadence from kinetic theory
  (``rebuild ~ skin / (2 c v_rms dt)``) and the stored pairs from the
  ``(cutoff+skin)^3`` shell, to locate the optimum skin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.md.simulation import Simulation
from repro.perfmodel.costs import CpuCostModel
from repro.perfmodel.workloads import WorkloadParams, get_workload
from repro.suite import get_benchmark

__all__ = ["SkinPoint", "skin_sweep_functional", "skin_sweep_model"]

#: Peak/rms displacement ratio: the rebuild triggers on the *fastest*
#: atom crossing skin/2, not the average one.
_MAX_OVER_RMS = 1.8

#: Per-step cost of re-checking one stored pair against the cutoff
#: (every timestep masks the whole cutoff+skin list).  The global cost
#: model folds this into its calibrated pair constant at the Table 2
#: skin; the sweep needs it explicit to expose the trade-off.
_LIST_CHECK_PER_PAIR = 1.2e-9


@dataclass(frozen=True)
class SkinPoint:
    """One skin setting's measured (or modelled) consequences."""

    skin: float
    rebuild_every: float
    stored_pairs_per_atom: float
    #: Modelled per-step seconds (model sweep) or measured engine
    #: seconds per step (functional sweep).
    step_seconds: float


def skin_sweep_functional(
    benchmark: str = "lj",
    n_atoms: int = 400,
    skins: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5, 0.8),
    n_steps: int = 150,
    seed: int = 11,
) -> list[SkinPoint]:
    """Measure the skin trade-off by actually running the engine."""
    points = []
    for skin in skins:
        sim: Simulation = get_benchmark(benchmark).build(n_atoms, seed=seed)
        sim.neighbor.skin = float(skin)
        sim.setup()
        sim.run(n_steps)
        stats = sim.neighbor.stats
        stored = stats.last_pairs / sim.system.n_atoms
        points.append(
            SkinPoint(
                skin=float(skin),
                rebuild_every=stats.rebuild_every,
                stored_pairs_per_atom=stored,
                step_seconds=sim.timers.total / n_steps,
            )
        )
    return points


def _rebuild_cadence(
    workload: WorkloadParams, skin: float, v_rms: float, dt: float
) -> float:
    """Kinetic-theory rebuild estimate: fastest atom crosses skin/2."""
    displacement_per_step = _MAX_OVER_RMS * v_rms * dt
    return max(1.0, 0.5 * skin / displacement_per_step)


def skin_sweep_model(
    benchmark: str = "lj",
    n_atoms: int = 2_048_000,
    skins: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2),
    *,
    v_rms: float = 2.08,  # sqrt(3T) at the LJ melt's T = 1.44
    dt: float = 0.005,
) -> list[SkinPoint]:
    """Model the skin trade-off for a production-size serial deck.

    Returns one point per skin; the per-step time is convex in the skin
    (too small -> constant rebuilding, too large -> bloated lists), with
    the minimum near the deck's Table 2 value.
    """
    base = get_workload(benchmark)
    model = CpuCostModel()
    points = []
    for skin in skins:
        cadence = _rebuild_cadence(base, skin, v_rms, dt)
        workload = replace(base, skin=float(skin), rebuild_every=cadence)
        compute = model.compute_times(workload, n_atoms, 1)
        stored_half = workload.list_neighbors_per_atom / 2.0
        check_cost = n_atoms * stored_half * _LIST_CHECK_PER_PAIR
        points.append(
            SkinPoint(
                skin=float(skin),
                rebuild_every=cadence,
                stored_pairs_per_atom=stored_half,
                step_seconds=compute.total + check_cost,
            )
        )
    return points


def optimal_skin(points: list[SkinPoint]) -> float:
    """The skin with the smallest modelled per-step time."""
    if not points:
        raise ValueError("no sweep points supplied")
    return min(points, key=lambda p: p.step_seconds).skin
