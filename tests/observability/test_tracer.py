"""Span tracer: nesting, ring wraparound, export, disabled-path cost."""

from __future__ import annotations

import json
import time

import pytest

from repro.md import RunConfig
from repro.md.kernels.compiled import compiled_available
from repro.md.lattice import lj_melt_system
from repro.md.potentials.lj import LennardJonesCut
from repro.md.simulation import Simulation
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    resolve_tracer,
)
from repro.reliability import DigestRecorder
from repro.service import JobSpec, build_simulation, execute_job


def make_clock(times):
    """Deterministic clock yielding the given instants in order."""
    it = iter(times)
    return lambda: next(it)


class TestSpanNesting:
    def test_nested_spans_record_depth_and_durations(self):
        tracer = Tracer(clock=make_clock([0.0, 1.0, 2.0, 3.0]))
        tracer.begin("outer", "task")
        tracer.begin("inner", "kernel")
        tracer.end()  # inner: [1, 2]
        tracer.end()  # outer: [0, 3]
        inner, outer = tracer.records()
        assert (inner.name, inner.cat, inner.depth) == ("inner", "kernel", 1)
        assert (outer.name, outer.cat, outer.depth) == ("outer", "task", 0)
        assert inner.duration == pytest.approx(1.0)
        assert outer.duration == pytest.approx(3.0)

    def test_span_context_manager_matches_begin_end(self):
        tracer = Tracer(clock=make_clock([0.0, 0.5, 1.5, 2.0]))
        with tracer.span("a", "x"):
            with tracer.span("b", "y"):
                pass
        names = [r.name for r in tracer.records()]
        assert names == ["b", "a"]  # innermost closes (and records) first

    def test_explicit_timestamps_bypass_the_clock(self):
        tracer = Tracer(clock=make_clock([]))  # any clock use would raise
        tracer.begin("t", "task", ts=10.0)
        tracer.end(ts=12.5)
        (record,) = tracer.records()
        assert record.duration == pytest.approx(2.5)

    def test_end_without_begin_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.end()

    def test_collapsed_stacks_reconstruct_nesting(self):
        tracer = Tracer(clock=make_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        with tracer.span("step"):
            with tracer.span("Pair"):
                pass
            with tracer.span("Neigh"):
                pass
        stacks = tracer.collapsed_stacks()
        assert set(stacks) == {"step", "step;Pair", "step;Neigh"}
        assert stacks["step;Pair"] == pytest.approx(1.0)


class TestRingBuffer:
    def test_wraparound_keeps_newest_and_counts_dropped(self):
        tracer = Tracer(capacity=4)
        for k in range(10):
            tracer.add_span(f"s{k}", "c", float(k), float(k) + 0.5)
        assert tracer.n_recorded == 4
        assert tracer.n_dropped == 6
        assert [r.name for r in tracer.records()] == ["s6", "s7", "s8", "s9"]

    def test_reset_clears_records_and_drop_count(self):
        tracer = Tracer(capacity=2)
        for k in range(5):
            tracer.add_span("s", "c", 0.0, 1.0)
        tracer.reset()
        assert tracer.n_recorded == 0
        assert tracer.n_dropped == 0
        assert tracer.records() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestChromeExport:
    def test_trace_event_schema(self, tmp_path):
        tracer = Tracer()
        tracer.begin("step", "step", ts=1.0)
        tracer.begin("Pair", "task", ts=1.25)
        tracer.end(ts=1.75)
        tracer.end(ts=2.0)
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "process_name"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0.0
        # Timestamps are microseconds relative to the earliest span.
        by_name = {e["name"]: e for e in complete}
        assert by_name["step"]["ts"] == pytest.approx(0.0)
        assert by_name["Pair"]["ts"] == pytest.approx(0.25e6)
        assert by_name["Pair"]["dur"] == pytest.approx(0.5e6)

    def test_tid_names_emit_thread_metadata(self):
        tracer = Tracer()
        tracer.add_span("compute", "compute", 0.0, 1.0, tid=3)
        doc = tracer.to_chrome_trace(tid_names={3: "rank 3"})
        threads = [e for e in doc["traceEvents"] if e.get("name") == "thread_name"]
        assert threads[0]["args"]["name"] == "rank 3"


class TestResolveTracer:
    def test_instances_pass_through(self):
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        assert resolve_tracer(NULL_TRACER) is NULL_TRACER

    def test_true_builds_a_live_tracer(self):
        assert isinstance(resolve_tracer(True), Tracer)

    def test_none_and_false_give_the_null_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER

    def test_the_environment_never_turns_tracing_on(self, monkeypatch):
        """Only the caller that reads the spans attaches a tracer: with
        ``REPRO_TRACE=1`` in the environment, a new simulation is
        untraced, ``attach_tracer(False)`` detaches, and a service job
        records no span anywhere."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        sim = Simulation(
            lj_melt_system(256, seed=3), [LennardJonesCut(cutoff=2.5)],
            dt=0.005, skin=0.3,
        )
        assert sim.tracer is NULL_TRACER
        sim.attach_tracer(True)
        assert isinstance(sim.tracer, Tracer)
        sim.attach_tracer(False)
        assert sim.tracer is sim.neighbor.tracer is NULL_TRACER

        recorded = []
        monkeypatch.setattr(
            Tracer, "_record", lambda self, *span: recorded.append(span)
        )
        execute_job(JobSpec(benchmark="lj", n_atoms=256, steps=4, seed=1))
        assert recorded == []


class TestNullTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.begin("x", "y")
        tracer.end()
        tracer.add_span("x", "y", 0.0, 1.0)
        with tracer.span("x"):
            pass
        tracer.reset()

    def test_disabled_instrumentation_cost_is_under_5_percent(self):
        """The acceptance bound: tracing off must be (nearly) free.

        Timing two full 500-step runs back to back is hopelessly noisy
        on shared hardware, so this measures the actual quantity: the
        run's wall clock versus the direct cost of the ~15 no-op tracer
        operations each instrumented step performs when disabled (the
        step, its task timers, and the serial row driver's three kernel
        spans: the declined fused pass, the geometry and the scatter).
        """
        sim = Simulation(
            lj_melt_system(256, seed=7),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        assert sim.tracer is NULL_TRACER
        start = time.perf_counter()
        sim.run(500)
        run_seconds = time.perf_counter() - start

        tracer = NULL_TRACER
        start = time.perf_counter()
        for _ in range(15 * 500):
            if tracer.enabled:
                tracer.begin("x", "task")
                tracer.end()
            with tracer.span("x", "cat"):
                pass
        null_seconds = time.perf_counter() - start
        assert null_seconds < 0.05 * run_seconds

    def test_span_returns_shared_singleton_no_allocation(self):
        """span() must not allocate per call — one shared inert object."""
        tracer = NullTracer()
        first = tracer.span("Pair", "task")
        for name in ("Neigh", "Comm", "Kspace"):
            assert tracer.span(name, "task") is first
        assert NULL_TRACER.span("x") is first

    def test_null_tracer_is_a_process_wide_singleton_default(self):
        """Separate simulations share NULL_TRACER — no per-sim state."""
        a = Simulation(
            lj_melt_system(108, seed=1), [LennardJonesCut(cutoff=2.5)],
            dt=0.005, skin=0.3,
        )
        b = Simulation(
            lj_melt_system(108, seed=2), [LennardJonesCut(cutoff=2.5)],
            dt=0.005, skin=0.3,
        )
        assert a.tracer is b.tracer is NULL_TRACER
        assert not hasattr(NULL_TRACER, "__dict__")  # __slots__: no state

    def test_null_tracer_survives_heavy_misuse_without_state(self):
        """Unbalanced begin/end on the null tracer must stay inert."""
        tracer = NullTracer()
        for _ in range(100):
            tracer.end()
        for _ in range(100):
            tracer.begin("x", "task")
        tracer.reset()
        assert tracer.enabled is False


class TestSimulationIntegration:
    def test_traced_run_records_step_task_and_kernel_spans(self):
        tracer = Tracer()
        sim = Simulation(
            lj_melt_system(256, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        sim.attach_tracer(tracer)
        sim.run(3)
        cats = {r.cat for r in tracer.records()}
        assert {"step", "task", "neigh", "kernel"} <= cats
        assert len(tracer.totals_by_name(cat="step")) == 1

    def test_task_span_totals_match_timer_seconds(self):
        """Spans reuse the timers' timestamps, so totals agree exactly."""
        tracer = Tracer()
        sim = Simulation(
            lj_melt_system(256, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        sim.attach_tracer(tracer)
        sim.run(5)
        totals = tracer.task_totals()
        for task, seconds in sim.timers.seconds.items():
            if task == "Other":  # derived, not a timed region
                continue
            assert totals.get(task, 0.0) == pytest.approx(seconds, abs=1e-12)

    def test_attach_tracer_keeps_the_backend(self):
        """Attaching or detaching a tracer moves where spans go, never
        which backend runs."""
        sim = Simulation(
            lj_melt_system(256, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            dt=0.005,
            skin=0.3,
        )
        plain = sim.backend
        tracer = Tracer()
        sim.attach_tracer(tracer)
        assert sim.backend is plain
        assert sim.timers.tracer is tracer
        assert sim.neighbor.tracer is tracer
        sim.run(2)
        assert {"step", "task", "kernel"} <= {r.cat for r in tracer.records()}
        sim.attach_tracer(None)
        assert sim.backend is plain
        assert sim.tracer is sim.neighbor.tracer is NULL_TRACER

    @pytest.mark.parametrize("bench, n_atoms, backend", [
        ("lj", 500, "compiled"),
        ("tersoff", 512, "compiled"),
        ("eam", 500, "numpy_fast"),
    ])
    def test_tracing_never_changes_the_trajectory(self, bench, n_atoms, backend):
        """A traced run takes the same kernels as an untraced one, fused
        passes included, so the digest heads agree."""
        if backend == "compiled" and not compiled_available():
            pytest.skip("no native kernel provider on this machine")
        heads = []
        for tracer in (NULL_TRACER, Tracer()):
            sim, _ = build_simulation(
                JobSpec(benchmark=bench, n_atoms=n_atoms, backend=backend)
            )
            sim.attach_tracer(tracer)
            recorder = DigestRecorder(every=3)
            sim.run(RunConfig(6, digest=recorder))
            sim.close()
            heads.append(recorder.chain.head)
        assert heads[0] == heads[1]
