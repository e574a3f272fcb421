"""Tests for the artifact post-processing (the authors' script suite)."""

import pytest

from repro.model.framework.artifact import ArtifactLayout
from repro.model.framework.experiment import ExperimentSpec, Mode
from repro.model.framework.postprocess import (
    aggregate_gpu_data,
    aggregate_mpi_data,
    aggregate_task_breakdown,
    render_aggregate,
)
from repro.model.framework.runner import run_experiment


@pytest.fixture
def populated_layout(tmp_path):
    layout = ArtifactLayout(tmp_path)
    for spec in (
        ExperimentSpec("lj", "cpu", 32, 8, mode=Mode.PROFILING),
        ExperimentSpec("lj", "cpu", 256, 8, mode=Mode.PROFILING),
        ExperimentSpec("rhodo", "cpu", 32, 16, mode=Mode.PROFILING),
        ExperimentSpec("eam", "gpu", 32, 2, mode=Mode.PROFILING),
    ):
        layout.write_profile(run_experiment(spec))
    return layout


class TestAggregation:
    def test_task_breakdown_covers_all_profiles(self, populated_layout):
        agg = aggregate_task_breakdown(populated_layout)
        assert ("lj", 32, 8) in agg
        assert ("rhodo", 32, 16) in agg
        assert ("eam", 32, 2) in agg
        for fractions in agg.values():
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_mpi_data_grouped_per_benchmark(self, populated_layout):
        agg = aggregate_mpi_data(populated_layout)
        assert set(agg) == {"lj", "rhodo"}  # GPU profiles carry no MPI data
        assert (32, 8) in agg["lj"]
        assert (256, 8) in agg["lj"]
        assert "MPI_Init" in agg["lj"][(32, 8)]

    def test_gpu_data_only_from_gpu_profiles(self, populated_layout):
        agg = aggregate_gpu_data(populated_layout)
        assert set(agg) == {"eam"}
        kernels = agg["eam"][(32, 2)]
        assert "k_eam_fast" in kernels
        assert "[CUDA memcpy HtoD]" in kernels

    def test_render(self, populated_layout):
        agg = aggregate_task_breakdown(populated_layout)
        out = render_aggregate(agg, title="Tasks")
        assert "Tasks" in out
        assert "lj" in out and "rhodo" in out

    def test_empty_tree(self, tmp_path):
        layout = ArtifactLayout(tmp_path)
        assert aggregate_task_breakdown(layout) == {}
        assert aggregate_mpi_data(layout) == {}
        assert aggregate_gpu_data(layout) == {}
