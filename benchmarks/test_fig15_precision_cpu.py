"""Bench: regenerate Figure 15 (CPU precision sensitivity).

Two layers cover this figure:

* the calibrated cost model reproduces the paper's absolute anchors
  (LJ 115.2 -> 98.9 TS/s single -> double, Rhodopsin 11.5 -> 8.4);
* the real engine *measures* the same single/mixed/double modes through
  its PrecisionPolicy — ``python -m repro campaign
  campaigns/precision_drift.toml`` writes the campaign record whose
  per-mode throughput and energy rows are consumed here.  The numpy
  engine's dtype sensitivity differs from vectorized C++, so only the
  paper's *shape* claims (ordering, mixed recovering speed at
  double-like drift) transfer; the absolute anchor ratios stay modeled.
"""

from pathlib import Path

import pytest

from repro.campaign import load_campaign
from repro.figures import fig15
from repro.report import load_report

from benchmarks.conftest import run_cold

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC = REPO_ROOT / "campaigns" / "precision_drift.toml"


def test_fig15_cpu_precision(benchmark, cold_campaign):
    data = run_cold(benchmark, fig15.generate)
    assert data.series[("lj", "single", 2048, 64)] == pytest.approx(115.2, rel=0.2)
    assert data.series[("lj", "double", 2048, 64)] == pytest.approx(98.9, rel=0.2)
    assert data.series[("rhodo", "single", 2048, 64)] == pytest.approx(11.5, rel=0.2)
    assert data.series[("rhodo", "double", 2048, 64)] == pytest.approx(8.4, rel=0.2)
    # Double is never faster than mixed/single anywhere in the sweep.
    for (bench, precision, size, ranks), ts in data.series.items():
        if precision == "double":
            assert ts <= data.series[(bench, "single", size, ranks)] + 1e-9


def test_fig15_measured_engine_ordering():
    """The paper's precision ordering, measured on the real kernels."""
    spec = load_campaign(SPEC)
    measured = REPO_ROOT / spec.out
    if not measured.exists():
        pytest.skip(f"run `python -m repro campaign {SPEC.relative_to(REPO_ROOT)}` "
                    f"to generate {spec.out}")
    short, long = spec.axes["steps"]
    rows = {
        (row["precision"], row["steps"]): row
        for row in load_report(measured)["cells"]
    }
    modes = spec.axes["precision"]
    ts = {mode: rows[mode, long]["ts_per_s"] for mode in modes}
    energy = {mode: rows[mode, long]["total_energy"] for mode in modes}
    drift = {
        mode: abs(energy[mode] - rows[mode, short]["total_energy"])
        for mode in modes
    }

    # single >= double, and mixed also clearly beats double.  (Rows are
    # raw wall-clock at one pool worker: record them on a quiet host.)
    assert ts["single"] >= ts["double"]
    assert ts["mixed"] > ts["double"]

    # Accuracy side of the tradeoff: mixed drifts like double (within
    # 2x over the NVE window) and lands on double's energies, while
    # single's sit measurably further away.
    assert drift["mixed"] <= 2.0 * drift["double"]
    assert abs(energy["single"] - energy["double"]) > abs(
        energy["mixed"] - energy["double"]
    )
