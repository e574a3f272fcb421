"""Per-rank timelines and their wiring into the simulated executor."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.model.cpu.executor import simulate_cpu_run
from repro.observability.timeline import RankTimeline
from repro.observability.tracer import Tracer


class TestFromModel:
    def test_span_math_matches_the_model(self):
        compute = np.array([1.0, 3.0, 2.0])
        wait = np.array([2.0, 0.0, 1.0])  # barrier at the slowest rank
        timeline = RankTimeline.from_model(compute, wait, comm_seconds=0.5)
        assert timeline.n_ranks == 3
        assert timeline.seconds_per_rank("compute") == pytest.approx(compute)
        assert timeline.wait_seconds_per_rank() == pytest.approx(wait)
        assert timeline.imbalance_seconds() == pytest.approx(np.mean(wait))
        assert timeline.step_seconds() == pytest.approx(3.5)
        assert timeline.critical_rank() == 1

    def test_zero_wait_ranks_emit_no_wait_span(self):
        timeline = RankTimeline.from_model([1.0, 2.0], [1.0, 0.0])
        names = [(s.rank, s.name) for s in timeline.spans]
        assert (1, "mpi_wait") not in names
        assert (0, "mpi_wait") in names

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RankTimeline.from_model([1.0, 2.0], [0.0])


class TestExport:
    def test_export_replays_into_a_tracer_per_rank(self):
        timeline = RankTimeline.from_model([1.0, 2.0], [1.0, 0.0])
        tracer = Tracer()
        timeline.export(tracer)
        tids = {r.tid for r in tracer.records()}
        assert tids == {0, 1}
        assert tracer.totals_by_name(cat="compute")["compute"] == pytest.approx(3.0)

    def test_chrome_trace_has_one_thread_per_rank(self, tmp_path):
        """The timeline reaches Chrome through the tracer: one thread
        row per rank, and every span keeps its rank, start and length."""
        timeline = RankTimeline.from_model([1.0, 2.0], [1.0, 0.0], comm_seconds=0.25)
        tracer = Tracer()
        timeline.export(tracer)
        path = tracer.write_chrome_trace(
            tmp_path / "ranks.json",
            tid_names={rank: f"rank {rank}" for rank in range(timeline.n_ranks)},
        )
        doc = json.loads(path.read_text())
        threads = [
            e for e in doc["traceEvents"] if e.get("name") == "thread_name"
        ]
        assert [(t["tid"], t["args"]["name"]) for t in threads] == [
            (0, "rank 0"), (1, "rank 1"),
        ]
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        got = sorted(
            (e["name"], e["cat"], e["tid"], e["ts"] / 1e6, e["dur"] / 1e6)
            for e in complete
        )
        want = sorted(
            (s.name, s.cat, s.rank, s.start, s.duration) for s in timeline.spans
        )
        assert [row[:3] for row in got] == [row[:3] for row in want]
        assert [row[3:] for row in got] == [
            pytest.approx(row[3:], abs=1e-12) for row in want
        ]

    def test_render_draws_every_rank(self):
        timeline = RankTimeline.from_model([1.0, 2.0], [1.0, 0.0])
        text = timeline.render()
        assert "rank   0" in text and "rank   1" in text
        assert "#" in text and "." in text


class TestExecutorIntegration:
    def test_run_result_carries_a_timeline(self):
        result = simulate_cpu_run("lj", 32_000, 8)
        timeline = result.timeline
        assert timeline is not None
        assert timeline.n_ranks == 8
        assert timeline.seconds_per_rank("compute") == pytest.approx(
            result.per_rank_compute_seconds
        )

    def test_imbalance_fraction_comes_from_the_recorded_spans(self):
        result = simulate_cpu_run("rhodo", 128_000, 16)
        profiled_total = (
            result.step_seconds + result.mpi_function_seconds["MPI_Init"]
        )
        expected = result.timeline.imbalance_seconds() / profiled_total
        assert result.mpi_imbalance_fraction == pytest.approx(expected)
        assert 0.0 < result.mpi_imbalance_fraction < 1.0

    def test_single_rank_run_has_no_imbalance(self):
        result = simulate_cpu_run("lj", 32_000, 1)
        assert result.mpi_imbalance_fraction == 0.0
        assert result.timeline.n_ranks == 1

    def test_explicit_tracer_records_rank_spans(self):
        tracer = Tracer()
        result = simulate_cpu_run("lj", 32_000, 4, tracer=tracer)
        assert {r.tid for r in tracer.records()} == {0, 1, 2, 3}
        waits = tracer.totals_by_name(cat="mpi")
        assert waits.get("mpi_wait", 0.0) == pytest.approx(
            float(np.sum(result.timeline.wait_seconds_per_rank()))
        )

    def test_timeline_step_matches_modelled_step_seconds(self):
        result = simulate_cpu_run("eam", 64_000, 8)
        # slowest rank's compute + uniform comm == the model's step time
        assert result.timeline.step_seconds() == pytest.approx(
            result.step_seconds, rel=1e-9
        )
