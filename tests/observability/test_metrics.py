"""Metrics registry: instrument semantics, snapshots, JSONL export."""

from __future__ import annotations

import json

import pytest

from repro.md.kernels.compiled import compiled_available
from repro.md.lattice import lj_melt_system
from repro.md.potentials.lj import LennardJonesCut
from repro.md.simulation import Simulation
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service import JobSpec, build_simulation
from repro.suite import get_benchmark


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_sync_total_mirrors_external_cumulative(self):
        counter = Counter("c")
        counter.sync_total(10)
        counter.sync_total(10)
        counter.sync_total(12)
        assert counter.value == 12.0
        with pytest.raises(ValueError):
            counter.sync_total(5)


class TestGauge:
    def test_set_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(-1.5)
        assert gauge.value == -1.5


class TestHistogram:
    def test_bucketing_and_stats(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx(56.2 / 4)
        snap = hist.snapshot()
        assert snap["min"] == 0.5 and snap["max"] == 50.0
        assert snap["buckets"][-1] == {"le": None, "count": 1}

    def test_boundary_lands_in_its_le_bucket(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(1.0)
        assert hist.counts == [1, 0]  # le=1.0 includes the bound

    def test_empty_snapshot_has_null_extrema(self):
        snap = Histogram("h").snapshot()
        assert snap["min"] is None and snap["max"] is None

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.gauge("zeta").set(1.0)
        registry.counter("alpha").inc()
        snap = registry.snapshot()
        assert list(snap) == ["alpha", "zeta"]
        json.dumps(snap)  # must not raise

    def test_write_snapshot_appends_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("steps").inc(5)
        path = tmp_path / "sub" / "metrics.jsonl"
        registry.write_snapshot(path, step=5, experiment="lj")
        registry.counter("steps").inc(5)
        registry.write_snapshot(path, step=10)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["step"] for rec in lines] == [5, 10]
        assert lines[0]["experiment"] == "lj"
        assert lines[1]["metrics"]["steps"]["value"] == 10.0

    def test_concurrent_jsonl_snapshots_stay_line_atomic(self, tmp_path):
        """Engine workers append snapshots to one file concurrently.

        Every line must remain parseable JSON with its writer's tag —
        no interleaved or torn records.
        """
        import threading

        path = tmp_path / "metrics.jsonl"
        n_workers, n_snaps = 4, 25
        barrier = threading.Barrier(n_workers)

        def worker(wid: int) -> None:
            registry = MetricsRegistry()
            counter = registry.counter("steps")
            barrier.wait()
            for i in range(n_snaps):
                counter.inc()
                registry.write_snapshot(path, step=i, worker=wid)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == n_workers * n_snaps
        per_worker: dict[int, list[int]] = {}
        for rec in lines:
            per_worker.setdefault(rec["worker"], []).append(rec["step"])
            assert rec["metrics"]["steps"]["value"] == rec["step"] + 1
        for wid in range(n_workers):
            assert sorted(per_worker[wid]) == list(range(n_snaps))

    def test_concurrent_increments_on_shared_registry(self, tmp_path):
        """A single registry hammered from threads loses no increments."""
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("ops")

        def worker() -> None:
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000.0
        path = tmp_path / "final.jsonl"
        registry.write_snapshot(path, step=0)
        rec = json.loads(path.read_text())
        assert rec["metrics"]["ops"]["value"] == 8000.0


class TestSimulationMetrics:
    def test_run_populates_engine_metrics(self):
        registry = MetricsRegistry()
        sim = Simulation(
            lj_melt_system(256, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        sim.attach_metrics(registry)
        sim.run(10)
        snap = registry.snapshot()
        assert snap["md_steps_total"]["value"] == 10.0
        assert snap["md_step_seconds"]["count"] == 10
        assert snap["md_pair_interactions_total"]["value"] > 0
        assert snap["md_neighbor_pairs"]["value"] > 0
        assert "md_energy_drift_rel" in snap
        # NVE at a sane timestep: drift stays small over 10 steps.
        assert abs(snap["md_energy_drift_rel"]["value"]) < 1e-2

    def test_attach_metrics_after_build(self):
        sim = Simulation(
            lj_melt_system(256, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        sim.run(2)
        registry = MetricsRegistry()
        sim.attach_metrics(registry)
        sim.run(3)
        assert registry.snapshot()["md_steps_total"]["value"] == 3.0
        sim.attach_metrics(None)
        sim.run(1)
        assert registry.snapshot()["md_steps_total"]["value"] == 3.0

    def test_shake_gauge_is_the_steps_position_solve(self):
        """``md_shake_iterations_last`` and the checkpointed
        ``last_iterations`` are what the step's SHAKE added to
        ``counts.shake_iterations``; RATTLE, which runs after it in the
        same step, must not overwrite them."""
        sim = get_benchmark("rhodo").build(300)
        registry = MetricsRegistry()
        sim.attach_metrics(registry)
        for _ in range(3):
            before = sim.counts.shake_iterations
            sim.step()
            added = sim.counts.shake_iterations - before
            assert added > 0
            assert registry.snapshot()["md_shake_iterations_last"]["value"] == added
            assert sim.constraints.state_dict() == {"last_iterations": added}

    @pytest.mark.parametrize("backend", ["numpy_fast", "compiled"])
    def test_scratch_gauge_reads_the_running_backend(self, backend):
        """EAM grows per-pair scratch on every backend; the compiled one
        grows its own buffers, not ``numpy_fast``'s."""
        if backend == "compiled" and not compiled_available():
            pytest.skip("no native kernel provider on this machine")
        sim, _ = build_simulation(
            JobSpec(benchmark="eam", n_atoms=500, backend=backend)
        )
        registry = MetricsRegistry()
        sim.attach_metrics(registry)
        sim.run(5)
        sim.close()
        assert sim.backend.name == backend
        capacity = registry.snapshot()["md_kernel_scratch_capacity_pairs"]
        assert capacity["value"] > 0
