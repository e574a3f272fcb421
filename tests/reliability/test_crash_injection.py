"""Crash-injection matrix: deterministic worker faults at chosen steps
and phases, with supervised recovery back to the reference trajectory.

Faults come from :class:`FaultPlan` (kill / hang, per worker, per step,
per phase).  Recovery goes through :class:`ResilientRunner`: restore the
newest checkpoint, respawn the pool, and — when restarts are exhausted —
degrade to the serial executor.  A recovered parallel run must finish
*bitwise* identical to the uninterrupted one; the serial degradation
path is held to ``1e-10``.
"""

import numpy as np
import pytest

from repro.md.simulation import SerialForceExecutor
from repro.observability import MetricsRegistry
from repro.parallel.engine import ParallelForceExecutor
from repro.reliability import CheckpointManager, FaultPlan, ResilientRunner
from repro.suite import get_benchmark

SIZES = {"lj": 600, "chain": 400}
STEPS = 40
WORKERS = 2


def _build(name, *, workers=WORKERS, fault_plan=None, barrier_timeout=30.0):
    sim = get_benchmark(name).build(SIZES[name])
    executor = ParallelForceExecutor(
        workers,
        fault_plan=fault_plan,
        barrier_timeout=barrier_timeout,
    )
    sim.force_executor = executor
    executor.bind(sim)
    return sim


def _final_state(sim):
    return {
        "positions": sim.system.positions.copy(),
        "velocities": sim.system.velocities.copy(),
        "step": sim.step_number,
    }


def _reference(name):
    sim = _build(name)
    try:
        sim.run(STEPS)
        return _final_state(sim)
    finally:
        sim.force_executor.close()


@pytest.fixture(scope="module")
def lj_reference():
    return _reference("lj")


@pytest.fixture(scope="module")
def chain_reference():
    return _reference("chain")


def _run_resilient(sim, tmp_path, *, max_restarts=2, manager_plan=None,
                   metrics=None):
    manager = CheckpointManager(
        tmp_path, every=10, keep_last=3, fault_plan=manager_plan
    )
    runner = ResilientRunner(
        sim,
        manager,
        max_restarts=max_restarts,
        backoff_seconds=0.01,
        metrics=metrics,
    )
    try:
        runner.run(STEPS)
    finally:
        sim.force_executor.close()
    return runner, manager


def _assert_bitwise(sim, reference):
    assert sim.step_number == reference["step"]
    assert np.array_equal(sim.system.positions, reference["positions"])
    assert np.array_equal(sim.system.velocities, reference["velocities"])


class TestKillRecovery:
    def test_kill_mid_step_recovers_bitwise(self, tmp_path, lj_reference):
        metrics = MetricsRegistry()
        sim = _build("lj", fault_plan=FaultPlan.parse("kill:1:17"))
        runner, _ = _run_resilient(sim, tmp_path, metrics=metrics)

        assert [e.action for e in runner.events] == ["respawn"]
        event = runner.events[0]
        assert event.step == 17
        assert event.resumed_from_step == 10
        assert event.restart_index == 1
        assert not runner.degraded
        # The pool really was torn down and respawned.
        assert sim.force_executor.spawn_generation >= 2
        assert metrics.counter("md_worker_failures_total").value == 1
        assert metrics.counter("md_restarts_total").value == 1
        _assert_bitwise(sim, lj_reference)

    def test_kill_during_rebuild_recovers_bitwise(self, tmp_path, lj_reference):
        sim = _build("lj", fault_plan=FaultPlan.parse("kill:0:12:rebuild"))
        runner, _ = _run_resilient(sim, tmp_path)
        assert [e.action for e in runner.events] == ["respawn"]
        _assert_bitwise(sim, lj_reference)

    def test_kill_during_checkpoint_write(self, tmp_path, lj_reference):
        """Dying mid-checkpoint loses that checkpoint, not the run."""
        plan = FaultPlan.parse("kill:0:15:checkpoint")
        sim = _build("lj", fault_plan=plan)
        runner, manager = _run_resilient(sim, tmp_path, manager_plan=plan)

        assert [e.action for e in runner.events] == ["respawn"]
        # The faulted write (step 20) never landed, so recovery fell
        # back to the previous good checkpoint at step 10.
        assert runner.events[0].resumed_from_step == 10
        # After recovery the replayed step-20 checkpoint is written for
        # real, and no partial temp file survives in the directory.
        steps = [int(p.stem.split("-")[-1]) for p in manager.checkpoints()]
        assert 20 in steps
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        _assert_bitwise(sim, lj_reference)

    def test_langevin_benchmark_recovers_bitwise(
        self, tmp_path, chain_reference
    ):
        """RNG-stream restore keeps even thermostatted runs bitwise."""
        sim = _build("chain", fault_plan=FaultPlan.parse("kill:1:15"))
        runner, _ = _run_resilient(sim, tmp_path)
        assert [e.action for e in runner.events] == ["respawn"]
        _assert_bitwise(sim, chain_reference)

    def test_env_var_fault_plan(self, tmp_path, lj_reference, monkeypatch):
        """$REPRO_FAULT_PLAN drives injection without code changes."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill:1:17")
        sim = _build("lj")  # no explicit plan: engine reads the env
        runner, _ = _run_resilient(sim, tmp_path)
        assert [e.action for e in runner.events] == ["respawn"]
        _assert_bitwise(sim, lj_reference)


class TestHangRecovery:
    def test_hang_detected_and_recovered(self, tmp_path, lj_reference):
        """A hung worker trips the barrier timeout, then recovery."""
        sim = _build(
            "lj",
            fault_plan=FaultPlan.parse("hang:0:25"),
            barrier_timeout=2.0,
        )
        runner, _ = _run_resilient(sim, tmp_path)
        assert [e.action for e in runner.events] == ["respawn"]
        assert runner.events[0].resumed_from_step == 20
        _assert_bitwise(sim, lj_reference)


class TestGracefulDegradation:
    def test_exhausted_restarts_degrade_to_serial(
        self, tmp_path, lj_reference
    ):
        metrics = MetricsRegistry()
        sim = _build("lj", fault_plan=FaultPlan.parse("kill:0:12;kill:1:20"))
        runner, _ = _run_resilient(
            sim, tmp_path, max_restarts=1, metrics=metrics
        )

        assert [e.action for e in runner.events] == [
            "respawn",
            "degrade-serial",
        ]
        assert runner.degraded
        assert isinstance(sim.force_executor, SerialForceExecutor)
        assert metrics.counter("md_degradations_total").value == 1
        # Serial summation order differs from the parallel engine, so
        # the degraded finish is near-bitwise rather than bitwise.
        assert sim.step_number == lj_reference["step"]
        delta = np.abs(sim.system.positions - lj_reference["positions"]).max()
        assert delta <= 1e-10
