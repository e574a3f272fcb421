"""Tests for the Figure 1 timestep loop orchestration."""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.md import LennardJonesCut, Simulation
from repro.md.lattice import lj_melt_system
from repro.md.timers import TASKS, TaskTimers, fractions


class TestTaskTimers:
    def test_all_tasks_initialized(self):
        timers = TaskTimers()
        assert set(timers.seconds) == set(TASKS)

    def test_accumulation(self):
        timers = TaskTimers()
        with timers.time("Pair"):
            sum(range(1000))
        assert timers.seconds["Pair"] > 0

    def test_unknown_task_rejected(self):
        timers = TaskTimers()
        with pytest.raises(KeyError):
            with timers.time("Gpu"):
                pass

    def test_fractions_sum_to_one(self):
        timers = TaskTimers()
        with timers.time("Pair"):
            sum(range(2000))
        with timers.time("Neigh"):
            sum(range(2000))
        assert sum(fractions(timers.seconds).values()) == pytest.approx(1.0)

    def test_reset(self):
        timers = TaskTimers()
        with timers.time("Pair"):
            pass
        timers.reset()
        assert timers.total == 0.0

    def test_zero_total_fractions(self):
        assert fractions(TaskTimers().seconds) == dict.fromkeys(TASKS, 0.0)


def _sim(n=256, **kwargs):
    system = lj_melt_system(n, seed=55)
    return Simulation(system, [LennardJonesCut(cutoff=2.5)], **kwargs)


class TestSimulation:
    def test_setup_runs_once_implicitly(self):
        sim = _sim()
        sim.step()  # implicit setup
        assert sim.step_number == 1

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            _sim().run(-1)

    def test_run_zero_is_noop(self):
        sim = _sim()
        sim.run(0)
        assert sim.step_number == 0

    def test_counters_track_work(self):
        sim = _sim()
        sim.run(20)
        assert sim.counts.timesteps == 20
        assert sim.counts.pair_interactions > 0
        assert sim.counts.pair_interactions_per_step > 0

    def test_thermo_logged_on_interval(self):
        sim = _sim(thermo_every=5)
        sim.run(20)
        assert len(sim.thermo) == 4

    def test_task_breakdown_covers_pair_and_neigh(self):
        sim = _sim()
        sim.run(30)
        breakdown = sim.task_breakdown()
        assert breakdown["Pair"] > 0.2
        assert breakdown["Neigh"] > 0.0
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_timesteps_per_second_positive(self):
        sim = _sim()
        sim.run(10)
        assert 0 < sim.timesteps_per_second() < float("inf")

    def test_neighbor_list_derived_from_potentials(self):
        sim = _sim(skin=0.4)
        assert sim.neighbor.cutoff == pytest.approx(2.5)
        assert sim.neighbor.skin == pytest.approx(0.4)
        assert not sim.neighbor.full

    def test_full_list_for_granular(self):
        from repro.suite import get_benchmark

        sim = get_benchmark("chute").build(150)
        assert sim.neighbor.full

    def test_virial_and_energy_refreshed(self):
        sim = _sim()
        sim.run(5)
        assert np.isfinite(sim.potential_energy)
        assert np.isfinite(sim.virial)

    def test_n_constraints_property(self):
        sim = _sim()
        assert sim.n_constraints == 0
        from repro.suite import get_benchmark

        rhodo = get_benchmark("rhodo").build(120)
        assert rhodo.n_constraints > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_simulation_is_freed_without_the_cyclic_gc(self, workers):
        """The executor's back-reference is weak, so dropping the last
        reference frees the neighbor list and scratch at once instead of
        whenever the cycle collector next runs."""
        from repro.parallel.engine import ParallelForceExecutor

        executor = ParallelForceExecutor(workers) if workers > 1 else None
        gc.collect()
        gc.disable()
        try:
            sim = _sim()
            if executor is not None:
                sim.force_executor = executor
                executor.bind(sim)
            sim.run(3)
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()
            if executor is not None:
                executor.close()
        if executor is not None:
            with pytest.raises(RuntimeError, match="not bound to a live"):
                executor.simulation


class TestPerTaskAccounting:
    """The engine's Figure 3-style breakdown accounts for every second."""

    def test_task_times_sum_to_step_time(self):
        sim = _sim()
        start = time.perf_counter()
        sim.run(8)
        wall = time.perf_counter() - start
        # "Other" absorbs the untimed remainder of each step, so the
        # eight task timers together are the stepped wall clock: never
        # more than the run around the steps took.
        assert 0.0 < sim.timers.total <= wall

    def test_other_task_is_populated(self):
        sim = _sim()
        sim.run(8)
        assert sim.timers.seconds["Other"] >= 0.0
        breakdown = sim.task_breakdown()
        assert set(breakdown) == set(TASKS)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_breakdown_has_pair_and_neigh_signal(self):
        sim = _sim()
        sim.run(8)
        assert sim.timers.seconds["Pair"] > 0.0
        assert sim.timers.seconds["Neigh"] > 0.0
