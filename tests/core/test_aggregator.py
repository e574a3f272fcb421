"""Tests for the runs.csv aggregation store."""

import pytest

from repro.model.framework.aggregator import RunsTable
from repro.model.framework.experiment import ExperimentSpec
from repro.model.framework.runner import run_experiment


@pytest.fixture(scope="module")
def table():
    runs = RunsTable()
    for bench in ("lj", "chain"):
        for size in (32, 256):
            for ranks in (4, 8):
                runs.add(run_experiment(ExperimentSpec(bench, "cpu", size, ranks)))
    return runs


class TestQueries:
    def test_len_and_iter(self, table):
        assert len(table) == 8
        assert len(list(table)) == 8

    def test_filter_by_benchmark(self, table):
        assert len(table.query(benchmark="lj")) == 4

    def test_filter_combination(self, table):
        rows = table.query(benchmark="chain", size_k=256, resources=8)
        assert len(rows) == 1
        assert rows[0].label == "chain"

    def test_predicate_filter(self, table):
        fast = table.query(predicate=lambda r: r.ts_per_s > 0)
        assert len(fast) == 8

    def test_series_sorted_by_resources(self, table):
        series = table.series("ts_per_s", benchmark="lj", size_k=32)
        assert [ranks for ranks, _ in series] == [4, 8]
        assert series[1][1] > series[0][1]  # more ranks, faster


class TestCsvRoundTrip:
    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "campaign" / "runs.csv"
        table.to_csv(path)
        restored = RunsTable.from_csv(path)
        assert len(restored) == len(table)
        first, second = next(iter(table)), next(iter(restored))
        assert first.ts_per_s == pytest.approx(second.ts_per_s)
        assert first.label == second.label

    def test_header_validation(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            RunsTable.from_csv(path)
