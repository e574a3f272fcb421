"""Tests for the shared-memory domain-decomposed parallel engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.engine import ParallelEngineError, ParallelForceExecutor
from repro.suite import get_benchmark

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small per-benchmark sizes (chain needs a chain-length multiple).
SIZES = {"lj": 2048, "chain": 2000, "eam": 1372, "rhodo": 1000, "chute": 1800}


def _run_serial(name: str, n_atoms: int, steps: int):
    sim = get_benchmark(name).build(n_atoms)
    sim.setup()
    for _ in range(steps):
        sim.step()
    return sim


def _run_parallel(name: str, n_atoms: int, steps: int, workers: int, **kwargs):
    sim = get_benchmark(name).build(n_atoms)
    executor = ParallelForceExecutor(workers, **kwargs)
    sim.force_executor = executor
    executor.bind(sim)
    try:
        sim.setup()
        for _ in range(steps):
            sim.step()
        return sim, {
            "steps_measured": executor.steps_measured,
            "builds_measured": executor.builds_measured,
            "timeline": executor.timeline(),
            "n_builds": sim.neighbor.stats.n_builds,
            "last_pairs": sim.neighbor.stats.last_pairs,
        }
    finally:
        executor.close()


class TestSerialParity:
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_forces_and_energy_match_serial(self, name):
        steps = 3
        serial = _run_serial(name, SIZES[name], steps)
        parallel, _ = _run_parallel(name, SIZES[name], steps, workers=2)
        force_delta = np.abs(serial.system.forces - parallel.system.forces).max()
        assert force_delta < 1e-10
        assert serial.potential_energy == pytest.approx(
            parallel.potential_energy, rel=1e-12, abs=1e-9
        )
        assert serial.virial == pytest.approx(
            parallel.virial, rel=1e-12, abs=1e-9
        )

    def test_interaction_count_and_rebuild_cadence_match_serial(self):
        steps = 6
        serial = _run_serial("lj", SIZES["lj"], steps)
        parallel, info = _run_parallel("lj", SIZES["lj"], steps, workers=2)
        assert info["n_builds"] == serial.neighbor.stats.n_builds
        assert info["last_pairs"] == serial.neighbor.stats.last_pairs


class TestDeterminism:
    def test_bitwise_identical_across_worker_counts(self):
        steps = 8
        states = {}
        for workers in (1, 2, 4):
            sim, _ = _run_parallel("lj", SIZES["lj"], steps, workers=workers)
            states[workers] = (
                sim.system.positions.copy(),
                sim.potential_energy,
            )
        ref_positions, ref_energy = states[1]
        for workers in (2, 4):
            positions, energy = states[workers]
            # bitwise: same directed rows summed in the same order on
            # every decomposition, so not even the last ulp may differ
            assert np.array_equal(ref_positions, positions)
            assert ref_energy == energy


def test_only_the_chute_bed_declares_a_slab_decomposition():
    """The engine reads the slab rule from the simulation it is bound to."""
    for name, n_atoms in SIZES.items():
        assert get_benchmark(name).build(n_atoms).quasi_2d == (name == "chute")


class TestFailurePaths:
    def test_worker_crash_raises_instead_of_hanging(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=3.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            executor.kill_worker(1)
            with pytest.raises(ParallelEngineError):
                sim.step()
        finally:
            executor.close()

    def test_crash_error_reports_worker_exit(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=3.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            executor.kill_worker(0)
            with pytest.raises(ParallelEngineError, match="exit"):
                sim.step()
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        sim.setup()
        executor.close()
        executor.close()


class TestObservability:
    def test_timings_and_timeline(self):
        _, info = _run_parallel("lj", SIZES["lj"], 4, workers=2)
        assert info["steps_measured"] >= 4
        assert info["builds_measured"] >= 1
        timeline = info["timeline"]
        assert timeline.n_ranks == 2
        assert timeline.render()

    def test_reset_timings(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            assert executor.steps_measured > 0
            executor.reset_timings()
            assert executor.steps_measured == 0
            assert executor.builds_measured == 0
            assert not executor.worker_pair_cpu_seconds.any()
            sim.step()
            assert executor.steps_measured == 1
        finally:
            executor.close()


class TestCli:
    def test_scale_subcommand_smoke(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "scale",
                "lj",
                "--workers",
                "2",
                "--steps",
                "3",
                "--atoms",
                "2048",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "parity" in result.stdout
        assert "critical-path speedup" in result.stdout
