"""Tests for experiment execution and run records."""

import pytest

from repro.model import simulate_cpu_run, simulate_gpu_run
from repro.model.costs import CpuCostModel
from repro.model.framework.experiment import ExperimentSpec, Mode
from repro.model.framework.runner import RunRecord, run_experiment
from repro.model.precision import Precision, precision_pair_factor
from repro.model.precision import gpu_precision_pair_factor


class TestBenchmarkingMode:
    def test_cpu_record_populated(self):
        record = run_experiment(ExperimentSpec("lj", "cpu", 32, 8))
        assert record.benchmark == "lj"
        assert record.platform == "cpu"
        assert record.ts_per_s > 0
        assert record.power_watts > 0
        assert record.memory_gb > 0
        assert record.task_fractions == {}  # benchmarking mode: no profile

    def test_gpu_record_populated(self):
        record = run_experiment(ExperimentSpec("eam", "gpu", 32, 2))
        assert record.platform == "gpu"
        assert record.utilization > 0
        assert record.mpi_time_fraction == 0.0

    def test_run_sized_for_power_sampling(self):
        """Section 4.2: enough timesteps for >= 10 s of runtime."""
        record = run_experiment(ExperimentSpec("lj", "cpu", 32, 8))
        assert record.runtime_s >= 10.0
        assert record.n_timesteps == pytest.approx(
            record.runtime_s * record.ts_per_s, rel=1e-6
        )

    def test_measured_power_has_sampling_noise(self):
        """The recorded watts come from the 0.5 s sampler, not the model."""
        a = run_experiment(ExperimentSpec("lj", "cpu", 32, 8, seed=1))
        b = run_experiment(ExperimentSpec("lj", "cpu", 32, 8, seed=2))
        # The seed drives both rank jitter and sampling noise; power
        # readings differ slightly but stay near the model value.
        assert a.power_watts != b.power_watts
        assert a.power_watts == pytest.approx(b.power_watts, rel=0.05)


class TestProfilingMode:
    def test_cpu_profile_payloads(self):
        record = run_experiment(
            ExperimentSpec("rhodo", "cpu", 32, 8, mode=Mode.PROFILING)
        )
        assert sum(record.task_fractions.values()) == pytest.approx(1.0)
        assert sum(record.mpi_function_fractions.values()) == pytest.approx(1.0)
        assert record.kernel_fractions == {}

    def test_gpu_profile_payloads(self):
        record = run_experiment(
            ExperimentSpec("lj", "gpu", 32, 2, mode=Mode.PROFILING)
        )
        assert sum(record.kernel_fractions.values()) == pytest.approx(1.0)
        assert "[CUDA memcpy HtoD]" in record.kernel_fractions


class TestRecordRoundTrip:
    def test_csv_row_round_trip(self):
        record = run_experiment(
            ExperimentSpec("rhodo", "cpu", 32, 8, mode=Mode.PROFILING, kspace_error=1e-6)
        )
        restored = RunRecord.from_row(record.to_row())
        assert restored.label == "rhodo-e-6"
        assert restored.ts_per_s == pytest.approx(record.ts_per_s)
        assert restored.kspace_error == pytest.approx(1e-6)
        assert restored.task_fractions == pytest.approx(record.task_fractions)

    def test_none_kspace_round_trip(self):
        record = run_experiment(ExperimentSpec("lj", "cpu", 32, 8))
        restored = RunRecord.from_row(record.to_row())
        assert restored.kspace_error is None

    def test_short_row_rejected(self):
        with pytest.raises(ValueError):
            RunRecord.from_row(["lj", "cpu"])

    def test_csv_header_is_the_field_order(self):
        """``runs.csv`` files written before the header was derived from
        the dataclass still load: the column order is pinned."""
        assert RunRecord.CSV_FIELDS == (
            "label", "benchmark", "platform", "size_k", "resources", "mode",
            "precision", "kspace_error", "n_timesteps", "runtime_s", "ts_per_s",
            "power_watts", "energy_efficiency", "mpi_time_fraction",
            "mpi_imbalance_fraction", "utilization", "memory_gb",
            "task_fractions", "mpi_function_fractions", "kernel_fractions",
        )


class TestPrecisionNames:
    @pytest.mark.parametrize("platform", ["cpu", "gpu"])
    def test_mixed_case_names_give_equal_results(self, platform):
        """Every modeled entry point parses precision names one way:
        ``"Single"`` is ``"single"`` on both platforms, down to the
        spec's cache identity and label."""
        names = ("single", "Single", "SINGLE")
        specs = {ExperimentSpec("lj", platform, 32, 2, precision=n) for n in names}
        assert len(specs) == 1 and specs.pop().label == "lj-single"
        records = [
            run_experiment(ExperimentSpec("lj", platform, 32, 2, precision=n))
            for n in names
        ]
        assert records[1:] == records[:1] * 2
        simulate = simulate_cpu_run if platform == "cpu" else simulate_gpu_run
        runs = [simulate("lj", 32_000, 2, precision=n).ts_per_s for n in names]
        assert runs[1:] == runs[:1] * 2
        factor = precision_pair_factor if platform == "cpu" else gpu_precision_pair_factor
        assert factor("lj", "Double") == factor("lj", Precision.DOUBLE)
        assert CpuCostModel(precision="Double").precision is Precision.DOUBLE
