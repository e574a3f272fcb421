"""Tests for experiment specifications and sweeps."""

import pytest

from repro.model.framework.experiment import ExperimentSpec, Mode, sweep


class TestSpec:
    def test_basic_fields(self):
        spec = ExperimentSpec("lj", "cpu", 32, 8)
        assert spec.n_atoms == 32_000
        assert spec.mode is Mode.BENCHMARKING
        assert spec.precision == "mixed"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            ExperimentSpec("namd", "cpu", 32, 8)

    def test_bad_platform_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("lj", "tpu", 32, 8)

    def test_non_positive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("lj", "cpu", 0, 8)
        with pytest.raises(ValueError):
            ExperimentSpec("lj", "cpu", 32, 0)

    def test_specs_hashable_and_equal(self):
        a = ExperimentSpec("lj", "cpu", 32, 8)
        b = ExperimentSpec("lj", "cpu", 32, 8)
        assert a == b
        assert hash(a) == hash(b)

    def test_with_mode(self):
        spec = ExperimentSpec("lj", "cpu", 32, 8).with_mode(Mode.PROFILING)
        assert spec.mode is Mode.PROFILING


class TestLabels:
    """The paper's experiment naming: rhodo-e-6, lj-double, ..."""

    def test_baseline_label_is_benchmark_name(self):
        assert ExperimentSpec("rhodo", "cpu", 32, 8).label == "rhodo"

    def test_error_threshold_suffix(self):
        spec = ExperimentSpec("rhodo", "cpu", 32, 8, kspace_error=1e-6)
        assert spec.label == "rhodo-e-6"

    def test_baseline_threshold_unsuffixed(self):
        spec = ExperimentSpec("rhodo", "cpu", 32, 8, kspace_error=1e-4)
        assert spec.label == "rhodo"

    def test_precision_suffix(self):
        spec = ExperimentSpec("lj", "cpu", 32, 8, precision="double")
        assert spec.label == "lj-double"

    def test_combined_suffixes(self):
        spec = ExperimentSpec(
            "rhodo", "cpu", 32, 8, kspace_error=1e-7, precision="single"
        )
        assert spec.label == "rhodo-e-7-single"


class TestSweep:
    def test_cartesian_product_size(self):
        specs = list(sweep(["lj", "eam"], "cpu", [32, 256], [1, 2, 4]))
        assert len(specs) == 2 * 2 * 3

    def test_kspace_errors_skip_non_kspace_benchmarks(self):
        specs = list(
            sweep(["lj", "rhodo"], "cpu", [32], [1], kspace_errors=[1e-5, 1e-6])
        )
        benchmarks = [s.benchmark for s in specs]
        assert benchmarks.count("rhodo") == 2
        assert benchmarks.count("lj") == 0

    def test_precisions_expanded(self):
        specs = list(
            sweep(["lj"], "cpu", [32], [1], precisions=["single", "double"])
        )
        assert {s.precision for s in specs} == {"single", "double"}

    def test_mode_propagated(self):
        specs = list(sweep(["lj"], "cpu", [32], [1], mode=Mode.PROFILING))
        assert specs[0].mode is Mode.PROFILING
