"""Render smoke tests: every figure module's text output is well-formed."""

import importlib

import pytest

REDUCED_KWARGS = {
    "fig03": dict(benchmarks=("lj",), sizes_k=(32,), ranks=(1, 8)),
    "fig04": dict(benchmarks=("lj",), sizes_k=(32,), ranks=(8,)),
    "fig05": dict(benchmarks=("lj",), sizes_k=(32,), ranks=(8,)),
    "fig06": dict(benchmarks=("lj",), sizes_k=(32,), ranks=(1, 8)),
    "fig07": dict(benchmarks=("lj",), sizes_k=(32,), gpus=(1, 2)),
    "fig08": dict(benchmarks=("rhodo",), sizes_k=(32,), gpus=(2,)),
    "fig09": dict(benchmarks=("lj",), sizes_k=(32,), gpus=(1, 2)),
    "fig10": dict(sizes_k=(32,), ranks=(1, 8), thresholds=(1e-4, 1e-6)),
    "fig11": dict(sizes_k=(32,), ranks=(8,), thresholds=(1e-4, 1e-6)),
    "fig12": dict(sizes_k=(32,), ranks=(8,), thresholds=(1e-6,)),
    "fig13": dict(sizes_k=(32,), gpus=(1, 2), thresholds=(1e-4, 1e-6)),
    "fig14": dict(sizes_k=(32,), thresholds=(1e-4, 1e-6)),
    "fig15": dict(benchmarks=("lj",), sizes_k=(32,), ranks=(8,)),
    "fig16": dict(benchmarks=("lj",), sizes_k=(32,), gpus=(2,)),
    "table2": {},
    "table3": {},
    "headline": {},
}


@pytest.mark.parametrize("name", sorted(REDUCED_KWARGS))
def test_render_well_formed(name):
    module = importlib.import_module(f"repro.figures.{name}")
    data = module.generate(**REDUCED_KWARGS[name])
    out = data.render()
    lines = out.splitlines()
    assert lines[0].startswith("===")
    assert data.figure_id in lines[0]
    assert len(lines) >= 3  # header + table
    assert data.series  # never empty


def test_render_without_renderer_is_header_only():
    from repro.figures.base import FigureData

    data = FigureData(figure_id="X", title="t")
    assert data.render() == "=== X: t ==="


# The header rule and the row-order rule live once, in
# ``repro.figures.base.sweep_figure``; pinned here per figure as
# strings (no floats), so the pins hold on any host.
_TASKS = "Bond Comm Kspace Modify Neigh Other Output Pair".split()
_MPI = "MPI_Allreduce MPI_Init MPI_Send MPI_Sendrecv MPI_Wait MPI_Waitany others".split()
_OVERHEAD = ["MPI time %", "MPI imbalance %"]
_PRECISION_ROWS = ["lj double 32 {n}", "lj mixed 32 {n}", "lj single 32 {n}"]

EXPECTED_LAYOUT = {
    # name: (key columns, value columns, row keys in printed order)
    "fig03": ("benchmark size[k] ranks", _TASKS, ["lj 32 1", "lj 32 8"]),
    "fig04": ("benchmark size[k] ranks", _OVERHEAD, ["lj 32 8"]),
    "fig05": ("benchmark size[k] ranks", _MPI, ["lj 32 8"]),
    "fig06": ("benchmark size[k] ranks", ["TS/s", "TS/s/W", "par.eff %"],
              ["lj 32 1", "lj 32 8"]),
    "fig07": ("benchmark size[k] gpus", _TASKS, ["lj 32 1", "lj 32 2"]),
    "fig08": ("benchmark size[k] gpus", ["top entries"], ["rhodo 32 2"]),
    "fig09": ("benchmark size[k] gpus", ["TS/s", "TS/s/W", "par.eff %", "util"],
              ["lj 32 1", "lj 32 2"]),
    # Threshold figures print the loosest threshold first.
    "fig10": ("threshold size[k] ranks", ["TS/s", "par.eff %"],
              ["1e-04 32 1", "1e-04 32 8", "1e-06 32 1", "1e-06 32 8"]),
    "fig11": ("threshold size[k] ranks", _TASKS, ["1e-04 32 8", "1e-06 32 8"]),
    "fig12": ("threshold size[k] ranks", _MPI, ["1e-06 32 8"]),
    "fig13": ("threshold size[k] gpus", ["TS/s", "par.eff %"],
              ["1e-04 32 1", "1e-04 32 2", "1e-06 32 1", "1e-06 32 2"]),
    "fig14": ("threshold size[k] ranks", _OVERHEAD,
              [f"{t} 32 {r}" for t in ("1e-04", "1e-06") for r in (4, 8, 16, 32, 64)]),
    "fig15": ("benchmark precision size[k] ranks", ["TS/s"],
              [row.format(n=8) for row in _PRECISION_ROWS]),
    "fig16": ("benchmark precision size[k] gpus", ["TS/s"],
              [row.format(n=2) for row in _PRECISION_ROWS]),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_LAYOUT))
def test_header_row_and_row_order(name):
    key_columns, value_columns, row_keys = EXPECTED_LAYOUT[name]
    module = importlib.import_module(f"repro.figures.{name}")
    lines = module.generate(**REDUCED_KWARGS[name]).render().splitlines()
    table = [[cell.strip() for cell in line.split(" | ")] for line in lines[1:]]
    n_keys = len(key_columns.split())
    assert table[0] == [*key_columns.split(), *value_columns]
    assert [" ".join(row[:n_keys]) for row in table[2:]] == row_keys


def test_rows_sort_thresholds_loosest_first_whatever_the_sweep_order():
    from repro.figures import fig10

    lines = fig10.generate(
        sizes_k=(32,), ranks=(8,), thresholds=(1e-7, 1e-4, 1e-5)
    ).render().splitlines()
    assert [line.split(" | ")[0].strip() for line in lines[3:]] == [
        "1e-04", "1e-05", "1e-07"
    ]
