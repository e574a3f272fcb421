"""Common scaffolding for figure/table reproduction modules.

Figures 3-16 are one campaign re-cut: outer axes (benchmark, k-space
threshold, precision) x size x resource count.  :func:`sweep_figure`
is that loop, written once; a :class:`RowFamily` says what one run
contributes to a figure (series value, value columns, cell text).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.figures.campaign import cached_run
from repro.model.framework.experiment import ExperimentSpec
from repro.model.framework.runner import RunRecord
from repro.model.framework.tables import render_table

__all__ = ["FigureData", "RowFamily", "percent_breakdown", "sweep_figure"]


@dataclass
class FigureData:
    """The data behind one reproduced figure or table.

    ``series`` is figure-specific structured data (documented per
    module); ``renderer`` turns it into the text table the examples
    print and EXPERIMENTS.md embeds.
    """

    figure_id: str
    title: str
    series: dict[str, Any] = field(default_factory=dict)
    renderer: Callable[["FigureData"], str] | None = None

    def render(self) -> str:
        header = f"=== {self.figure_id}: {self.title} ==="
        if self.renderer is None:
            return header
        return header + "\n" + self.renderer(self)


@dataclass(frozen=True)
class RowFamily:
    """What one run contributes to a sweep figure.

    ``value(record, baseline)`` is the series value — ``baseline`` being
    the per-resource TS/s of the first resource count at the same axes
    and size, which parallel efficiency is measured against;
    ``columns`` heads the value columns and ``cells(value)`` fills them.
    """

    value: Callable[[RunRecord, float], Any]
    columns: tuple[str, ...]
    cells: Callable[[Any], Sequence[str]]


def percent_breakdown(attribute: str, names: Sequence[str]) -> RowFamily:
    """One ``NN.N%`` column per name of a record's ``{name: fraction}``."""
    return RowFamily(
        value=lambda record, _baseline: getattr(record, attribute),
        columns=tuple(names),
        cells=lambda shares: [f"{100 * shares.get(n, 0.0):.1f}%" for n in names],
    )


def sweep_figure(
    figure_id: str,
    title: str,
    platform: str,
    axes: Mapping[str, Iterable],
    sizes_k: Iterable[int],
    counts: Iterable[int],
    family: RowFamily,
    **fixed_spec: Any,
) -> FigureData:
    """Outer ``axes`` x size x resource count over :func:`cached_run`.

    ``axes`` maps ``ExperimentSpec`` fields to the values swept,
    ``fixed_spec`` holds the fields no axis sweeps, and ``series[(*axis
    values, size_k, count)] = family.value(record, baseline)``.  Rows
    print k-space thresholds loosest first, everything else ascending.
    """
    sizes_k, counts = tuple(sizes_k), tuple(counts)
    series: dict[tuple, Any] = {}
    for outer in itertools.product(*axes.values()):
        swept = dict(zip(axes, outer), platform=platform, **fixed_spec)
        for size in sizes_k:
            baseline: float | None = None
            for count in counts:
                record = cached_run(
                    ExperimentSpec(size_k=size, resources=count, **swept)
                )
                if baseline is None:
                    baseline = record.ts_per_s / count
                series[(*outer, size, count)] = family.value(record, baseline)

    def _render(data: FigureData) -> str:
        loosest_first = [name == "kspace_error" for name in axes] + [False, False]
        names = ["threshold" if f else name for name, f in zip(axes, loosest_first)]
        resource = "ranks" if platform == "cpu" else "gpus"
        ordered = sorted(
            data.series.items(),
            key=lambda kv: [-k if flip else k for k, flip in zip(kv[0], loosest_first)],
        )
        rows = [
            [f"{k:.0e}" if flip else k for k, flip in zip(key, loosest_first)]
            + list(family.cells(value))
            for key, value in ordered
        ]
        return render_table([*names, "size[k]", resource, *family.columns], rows)

    return FigureData(figure_id, title, series, _render)
