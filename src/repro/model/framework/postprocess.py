"""Post-processing of artifact profile data (the authors' scripts).

The paper's artifact post-processes profiling output with
``aggregate_mpi_data.py``, ``parse_task_breakdown.py`` and
``aggregate_gpu_data.py``; these functions are their equivalents,
consuming an :class:`~repro.model.framework.artifact.ArtifactLayout` tree and
producing the aggregated tables the chart generators plot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.model.framework.artifact import ArtifactLayout
from repro.model.framework.tables import render_table

__all__ = [
    "aggregate_task_breakdown",
    "aggregate_mpi_data",
    "aggregate_gpu_data",
    "render_aggregate",
]


def _iter_profiles(layout: ArtifactLayout):
    for path in layout.profile_index():
        yield json.loads(Path(path).read_text())


def aggregate_task_breakdown(
    layout: ArtifactLayout,
) -> dict[tuple[str, int, int], dict[str, float]]:
    """``parse_task_breakdown`` equivalent.

    Returns ``{(benchmark, size_k, resources): {task: fraction}}`` for
    every profile in the tree that carries a task breakdown.
    """
    out: dict[tuple[str, int, int], dict[str, float]] = {}
    for profile in _iter_profiles(layout):
        fractions = profile.get("task_fractions") or {}
        if not fractions:
            continue
        key = (profile["benchmark"], profile["size_k"], profile["resources"])
        out[key] = fractions
    return out


def aggregate_mpi_data(
    layout: ArtifactLayout,
) -> dict[str, dict[tuple[int, int], dict[str, float]]]:
    """``aggregate_mpi_data`` equivalent.

    Groups MPI-function breakdowns per benchmark:
    ``{benchmark: {(size_k, resources): {function: fraction}}}``.
    """
    out: dict[str, dict[tuple[int, int], dict[str, float]]] = defaultdict(dict)
    for profile in _iter_profiles(layout):
        functions = profile.get("mpi_function_fractions") or {}
        if not functions:
            continue
        out[profile["benchmark"]][
            (profile["size_k"], profile["resources"])
        ] = functions
    return dict(out)


def aggregate_gpu_data(
    layout: ArtifactLayout,
) -> dict[str, dict[tuple[int, int], dict[str, float]]]:
    """``aggregate_gpu_data`` equivalent: per-kernel fractions."""
    out: dict[str, dict[tuple[int, int], dict[str, float]]] = defaultdict(dict)
    for profile in _iter_profiles(layout):
        kernels = profile.get("kernel_fractions") or {}
        if not kernels:
            continue
        out[profile["benchmark"]][
            (profile["size_k"], profile["resources"])
        ] = kernels
    return dict(out)


def render_aggregate(
    aggregate: dict[tuple[str, int, int], dict[str, float]],
    *,
    title: str = "Aggregated task breakdown",
    top_n: int = 5,
) -> str:
    """Human-readable rendering of an aggregated breakdown."""
    rows = []
    for (bench, size, resources), fractions in sorted(aggregate.items()):
        top = sorted(fractions.items(), key=lambda kv: -kv[1])[:top_n]
        cells = ", ".join(f"{name}={100 * value:.1f}%" for name, value in top)
        rows.append([bench, size, resources, cells])
    return render_table(
        ["benchmark", "size[k]", "resources", f"top {top_n} entries"],
        rows,
        title=title,
    )
