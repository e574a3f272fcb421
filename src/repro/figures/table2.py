"""Table 2 — "Main characteristics of our benchmark suite".

The taxonomy rows come straight from the suite definitions; the
``measure_neighbors`` helper additionally *derives* the neighbors/atom
column from the functional engine's geometry, validating that the
quoted numbers fall out of density x cutoff rather than being copied.
"""

from __future__ import annotations

from repro.figures.base import FigureData
from repro.model.framework.tables import render_table
from repro.suite import registry

__all__ = ["generate", "measure_neighbors"]

_ROWS = (
    ("Min atoms", lambda t: f"{t.min_atoms // 1000}k"),
    ("Force field", lambda t: t.force_field),
    ("Cutoff", lambda t: f"{t.cutoff} {t.cutoff_units}"),
    ("Neighbor skin", lambda t: f"{t.neighbor_skin} {t.cutoff_units}"),
    ("Neighbors/atom", lambda t: str(t.neighbors_per_atom)),
    ("pair_modify", lambda t: t.pair_modify_mix or "-"),
    ("kspace_style", lambda t: t.kspace_style or "-"),
    (
        "Kspace error",
        lambda t: f"{t.kspace_error:.1e}" if t.kspace_error else "-",
    ),
    ("Integration", lambda t: t.integration),
)

#: Paper column order.
_ORDER = ("rhodo", "lj", "chain", "eam", "chute")


def generate() -> FigureData:
    """The Table 2 grid, benchmarks as columns."""
    taxonomies = {name: registry[name].taxonomy for name in _ORDER}
    series = {
        name: {label: fn(tax) for label, fn in _ROWS}
        for name, tax in taxonomies.items()
    }

    def _render(data: FigureData) -> str:
        headers = ["Characteristic", *_ORDER]
        rows = [
            [label, *(data.series[name][label] for name in _ORDER)]
            for label, _ in _ROWS
        ]
        return render_table(headers, rows)

    return FigureData(
        figure_id="Table 2",
        title="Main characteristics of the benchmark suite",
        series=series,
        renderer=_render,
    )


def measure_neighbors(benchmark: str, n_atoms: int = 500) -> float:
    """Neighbors/atom measured by actually building the system.

    Runs the functional builder and reads the neighbor-list statistics;
    small systems under-report the bulk value slightly (surface and
    minimum-image effects), which the validation test accounts for.
    """
    sim = registry[benchmark].build(n_atoms)
    sim.setup()
    return sim.neighbor.stats.last_neighbors_per_atom
