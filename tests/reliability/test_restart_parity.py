"""Restart-parity matrix: snapshot/restore is bit-for-bit on every
registered benchmark, serial and parallel, in the double and mixed dtype
policies.

Each case runs an uninterrupted reference for ``2k`` steps, then an
interrupted twin: run ``k`` steps, snapshot, restore into a *freshly
built* simulation, run the remaining ``k`` steps.  Every row of
``STATE_ARRAYS`` must match the reference bitwise (bytes, not allclose)
— the whole point of snapshot format v2.  MIXED stores float64 state,
so its snapshots round-trip exactly like double's; the narrower SINGLE
storage round-trip lives in ``tests/md/test_precision.py``.
"""

import pytest

from repro.md.restart import restore_simulation, save_snapshot
from repro.parallel.engine import ParallelForceExecutor
from repro.suite import BENCHMARK_NAMES, get_benchmark
from tests.conftest import assert_same_arrays

#: One size per registered benchmark (a new one fails here until sized).
SIZES = {
    "lj": 500, "chain": 400, "eam": 500, "rhodo": 384, "chute": 480,
    "tersoff": 216,
}
HALF_STEPS = 10
PRECISIONS = ("double", "mixed")


def _build(name, workers=0, precision="double"):
    sim = get_benchmark(name).build(SIZES[name])
    sim.set_precision(precision)
    if workers:
        executor = ParallelForceExecutor(workers, precision=precision)
        sim.force_executor = executor
        executor.bind(sim)
    return sim


def _steps(sim, n):
    sim.setup()
    for _ in range(n):
        sim.step()


def _assert_bitwise(restarted, reference):
    assert restarted.step_number == reference.step_number
    assert_same_arrays(restarted.system, reference.system)
    assert restarted.potential_energy == reference.potential_energy
    assert restarted.virial == reference.virial
    # Rebuild cadence must also survive the restart (same build count
    # means the same pair orderings were in effect at the same steps).
    assert (
        restarted.neighbor.stats.n_builds == reference.neighbor.stats.n_builds
    )


def _restart_case(name, workers, tmp_path, precision="double"):
    reference = _build(name, workers, precision)
    try:
        _steps(reference, 2 * HALF_STEPS)

        interrupted = _build(name, workers, precision)
        try:
            _steps(interrupted, HALF_STEPS)
            path = tmp_path / f"{name}.npz"
            save_snapshot(interrupted, path)
        finally:
            interrupted.force_executor.close()

        restarted = _build(name, workers, precision)
        try:
            restore_simulation(restarted, path)
            for _ in range(HALF_STEPS):
                restarted.step()
            _assert_bitwise(restarted, reference)
        finally:
            restarted.force_executor.close()
    finally:
        reference.force_executor.close()


class TestSerialRestartParity:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_bitwise(self, name, precision, tmp_path):
        _restart_case(name, workers=0, tmp_path=tmp_path, precision=precision)


class TestParallelRestartParity:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_bitwise_two_workers(self, name, tmp_path):
        _restart_case(name, workers=2, tmp_path=tmp_path)

    def test_bitwise_two_workers_mixed(self, tmp_path):
        _restart_case("lj", workers=2, tmp_path=tmp_path, precision="mixed")

    def test_bitwise_four_workers(self, tmp_path):
        _restart_case("lj", workers=4, tmp_path=tmp_path)
