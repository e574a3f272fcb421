"""Cross-backend / cross-worker determinism matrix, digest-chain oracle.

This is the shared fixture that replaces the ad-hoc per-PR parity
assertions: every determinism claim the engine makes is stated as a
property of the certify digest chain.

Two regimes, matching ``docs/REPRODUCIBILITY.md``:

* **bitwise** — the parallel engine across 1/2/4 workers, and repeated
  runs of any fixed configuration: chain *heads* must be equal, i.e.
  every interval state is bit-for-bit identical;
* **equivalent** — the three kernel backends at float64: the kernels
  differ in summation order, so trajectories agree to the last ulp but
  not bit for bit.  Chains must have identical shape (same steps), the
  witness observables must agree within the double-tier parity
  tolerance, and the final states must agree within it too.  The
  compiled backend's fused Tersoff pass against its own unfused route
  sits here as well: a kernel that calls libm cannot be bitwise numpy.
"""

import numpy as np
import pytest

from repro.md import RunConfig
from repro.reliability import CheckpointManager, FaultPlan, ResilientRunner
from repro.md.kernels import CompiledBackend, KernelBackend, get_backend
from repro.md.kernels.compiled import compiled_available
from repro.md.precision import PARITY_TOLERANCES
from repro.parallel.engine import ParallelForceExecutor
from repro.reliability.certify import DigestRecorder
from repro.suite import BENCHMARK_NAMES, get_benchmark

BACKENDS = ("numpy_ref", "numpy_fast", "compiled")
#: Every row of the matrix spans the registry: one force body per
#: potential means a new workload gets both drivers (and these tests).
BENCHMARKS = BENCHMARK_NAMES
SIZES = {
    "chain": 200, "chute": 200, "eam": 500, "lj": 150, "rhodo": 300, "tersoff": 216,
}
STEPS = 6
EVERY = 2
TOL = PARITY_TOLERANCES["double"]


def _chain_for(benchmark: str, backend: str, workers: int = 0, size: int = 0):
    """Run one short certified trajectory; returns (chain, positions).

    ``workers=0`` runs the serial executor; ``workers>=1`` the parallel
    engine with that many workers (a one-worker *parallel* run is its
    own executor family — bitwise with 2/4 workers, not with serial).
    """
    sim = get_benchmark(benchmark).build(size or SIZES[benchmark])
    sim.set_backend(get_backend(backend))
    if workers >= 1:
        executor = ParallelForceExecutor(workers)
        sim.force_executor = executor
        executor.bind(sim)
    recorder = DigestRecorder(every=EVERY)
    try:
        sim.run(RunConfig(steps=STEPS, digest=recorder))
        recorder.finalize(sim)
        return recorder.chain, sim.system.positions.copy()
    finally:
        sim.close()


def _skip_unavailable(backend: str) -> None:
    if backend == "compiled" and not compiled_available():
        pytest.skip("no compiled provider on this machine")


def _assert_equivalent(candidate, reference, label: str) -> None:
    """The *equivalent* regime between two ``(chain, positions)`` runs:
    same steps, every witness and the final state within ``TOL``."""
    (chain, x), (ref_chain, ref_x) = candidate, reference
    assert chain.steps() == ref_chain.steps()
    for mine, theirs in zip(chain.entries, ref_chain.entries):
        for name, value in theirs.witness.items():
            scale = max(1.0, abs(value))
            assert abs(mine.witness[name] - value) / scale <= TOL, (
                f"{label} witness {name} diverged at step {mine.step}"
            )
    assert float(np.abs(x - ref_x).max()) <= TOL


@pytest.fixture(scope="module")
def matrix():
    """chains[(benchmark, backend)] -> (DigestChain, final positions)."""
    chains = {}
    for benchmark in BENCHMARKS:
        for backend in BACKENDS:
            if backend == "compiled" and not compiled_available():
                continue
            chains[(benchmark, backend)] = _chain_for(benchmark, backend)
    return chains


class TestWorkerCountBitwise:
    """Parallel 1/2/4 workers: digest-chain heads must be *equal*."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_chain_head_identical_across_worker_counts(self, bench):
        heads = {}
        for workers in (1, 2, 4):
            chain, _ = _chain_for(bench, "numpy_fast", workers=workers)
            heads[workers] = chain.head
        assert heads[1] == heads[2] == heads[4], (
            f"{bench}: parallel-engine chains diverged across worker "
            f"counts: {heads}"
        )


class TestDriverParity:
    """One force body, two drivers: at step 0 of a jittered start the
    engine's owner-writes pass (1 and 3 workers) gives the serial
    newton-on pass's forces, energy, virial and interaction count."""

    @staticmethod
    def _pair_pass(bench, workers):
        sim = get_benchmark(bench).build(SIZES[bench])
        sim.set_backend(get_backend("numpy_fast"))
        if workers:
            executor = ParallelForceExecutor(workers)
            sim.force_executor = executor
            executor.bind(sim)
        system = sim.system
        system.positions += np.random.default_rng(5).normal(
            scale=0.03, size=system.positions.shape
        )
        try:
            sim.setup()
            system.forces[:] = 0.0
            result = sim.force_executor.compute(system)
            return result, system.forces.copy()
        finally:
            sim.close()

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_engine_pass_matches_the_serial_pass(self, bench):
        serial, serial_forces = self._pair_pass(bench, 0)
        assert serial.interactions > 0 and np.abs(serial_forces).max() > 1e-3
        scale = max(1.0, float(np.abs(serial_forces).max()))
        for workers in (1, 3):
            engine, forces = self._pair_pass(bench, workers)
            assert engine.interactions == serial.interactions
            assert float(np.abs(forces - serial_forces).max()) <= TOL * scale
            for name in ("energy", "virial"):
                ours, theirs = getattr(engine, name), getattr(serial, name)
                assert abs(ours - theirs) <= TOL * max(1.0, abs(theirs)), name


class TestRunRepeatability:
    """The same configuration twice: identical head (bitwise rerun)."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rerun_reproduces_chain_head(self, matrix, bench, backend):
        _skip_unavailable(backend)
        first, _ = matrix[(bench, backend)]
        second, _ = _chain_for(bench, backend)
        assert second.head == first.head


class TestCrossBackendEquivalence:
    """numpy_ref / numpy_fast / compiled at float64: same chain shape,
    witnesses and final state within the double parity tier."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("other", ("numpy_fast", "compiled"))
    def test_chain_equivalent_to_reference(self, matrix, bench, other):
        _skip_unavailable(other)
        _assert_equivalent(
            matrix[(bench, other)], matrix[(bench, "numpy_ref")], f"{bench}/{other}"
        )

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_chain_catches_different_physics(self, matrix, bench):
        # Sanity for the oracle itself: distinct benchmarks/backends
        # must not collide on heads by construction.
        heads = {
            backend: chain.head
            for (bench_name, backend), (chain, _) in matrix.items()
            if bench_name == bench
        }
        assert len(set(heads.values())) == len(heads), heads


class TestFusedPairPassIsInvisible:
    """The compiled backend's fused lj/cut pass must not move a digest:
    for the serial executor and 1/2/4 engine workers, the LJ chain head
    equals the one the same backend produces with the fused hook
    declining — the path every head recorded before the kernel existed
    was computed on.  (Workers are forked, so they inherit the patch.)"""

    @pytest.mark.parametrize("workers", (0, 1, 2, 4))
    def test_lj_chain_head_unchanged_by_the_fused_kernel(
        self, workers, monkeypatch
    ):
        _skip_unavailable("compiled")
        fused, _ = _chain_for("lj", "compiled", workers=workers)
        monkeypatch.setattr(
            CompiledBackend, "pair_forces", KernelBackend.pair_forces
        )
        unfused, _ = _chain_for("lj", "compiled", workers=workers)
        assert fused.head == unfused.head

    # Recorded at PR 13 on the cc provider (docs/PERFORMANCE.md §1) and
    # reproduced unchanged when that provider became the only one.  The
    # witnesses hash a BLAS dot product, so a different numpy/BLAS build
    # or CPU family may legitimately move them: re-record, don't relax.
    SERIAL_HEAD = "cb1167f0fb7429a49f0cbd46a5b435cd0d3d88171a5a3fe3c89bd2cd98650ad0"
    ENGINE_HEAD = "4eb18e6d450e1494fcceeab1d9bbe4ca368db1c6780dcafa1eba5ab5d4cdad4e"

    @pytest.mark.parametrize("workers", (0, 1, 2, 4))
    def test_lj_chain_head_is_the_recorded_one(self, workers):
        _skip_unavailable("compiled")
        chain, _ = _chain_for("lj", "compiled", workers=workers)
        assert chain.head == (self.ENGINE_HEAD if workers else self.SERIAL_HEAD)


class TestFusedTersoffIsEquivalent:
    """The fused Tersoff pass calls libm where the numpy body runs
    numpy's own ``exp``/``pow`` loops, so unlike the LJ pass above it is
    *not* invisible: compiled with the hook engaged and compiled with it
    declining sit in the equivalent regime (same steps, witnesses and
    final positions within the double tier), and each route is bitwise
    itself.  The hook is *required* to engage, so agreement cannot come
    from it declining."""

    def test_fused_chain_is_equivalent_and_repeats(self, monkeypatch):
        _skip_unavailable("compiled")
        native = CompiledBackend.pair_forces

        def must_engage(self, *args):
            fused = native(self, *args)
            assert fused is not None, "the fused Tersoff kernel declined"
            return fused

        monkeypatch.setattr(CompiledBackend, "pair_forces", must_engage)
        fused = _chain_for("tersoff", "compiled")
        again = _chain_for("tersoff", "compiled")
        assert again[0].head == fused[0].head
        monkeypatch.setattr(
            CompiledBackend, "pair_forces", KernelBackend.pair_forces
        )
        unfused = _chain_for("tersoff", "compiled")
        assert unfused[0].head != fused[0].head
        _assert_equivalent(fused, unfused, "tersoff fused/unfused")


class TestNativeDirectedRowsAreInvisible:
    """The compiled backend's directed-row kernel must not move a
    digest: engine heads for 1/2/4 workers equal the ones the same
    backend produces with the hook declining (half list -> mirror ->
    lexsort, the path every earlier head was computed on) — for LJ
    (owned-headed rows only) and EAM (all local rows) at sizes whose
    local sets are above the brute-force crossover, with the hook
    *required* to engage so equality cannot come from it declining.
    (Workers are forked, so they inherit the patches.)"""

    SIZES = {"lj": 1000, "eam": 500}

    @staticmethod
    def _require_the_kernel(monkeypatch):
        native = CompiledBackend.directed_rows

        def must_engage(self, *args):
            rows = native(self, *args)
            assert rows is not None, "the directed-row kernel declined"
            return rows

        monkeypatch.setattr(CompiledBackend, "directed_rows", must_engage)

    @pytest.mark.parametrize("bench", tuple(SIZES))
    def test_engine_heads_unchanged_by_the_row_kernel(self, bench, monkeypatch):
        _skip_unavailable("compiled")
        size = self.SIZES[bench]
        self._require_the_kernel(monkeypatch)
        native = {
            workers: _chain_for(bench, "compiled", workers, size)[0].head
            for workers in (1, 2, 4)
        }
        monkeypatch.setattr(
            CompiledBackend, "directed_rows", KernelBackend.directed_rows
        )
        fallback = {
            workers: _chain_for(bench, "compiled", workers, size)[0].head
            for workers in (1, 2, 4)
        }
        assert native == fallback
        assert len(set(native.values())) == 1, native

    def test_kill_recovery_past_a_rebuild_replays_bitwise(
        self, tmp_path, monkeypatch
    ):
        """Restore rebuilds the lists as at the checkpointed build and
        the replay crosses later rebuilds, all through the kernel: the
        recovered run ends on the uninterrupted run's head."""
        _skip_unavailable("compiled")
        self._require_the_kernel(monkeypatch)
        steps, every = 24, 4

        def run(directory, fault_plan=None):
            sim = get_benchmark("lj").build(self.SIZES["lj"])
            sim.set_backend(get_backend("compiled"))
            executor = ParallelForceExecutor(2, fault_plan=fault_plan)
            sim.force_executor = executor
            executor.bind(sim)
            recorder = DigestRecorder(every=every)
            runner = ResilientRunner(
                sim,
                CheckpointManager(directory, every=every),
                digest=recorder,
                backoff_seconds=0.01,
            )
            try:
                runner.run(steps)
                recorder.finalize(sim)
                return runner, recorder.chain.head, sim.neighbor.stats.n_builds
            finally:
                sim.close()

        _, reference_head, builds = run(tmp_path / "reference")
        runner, head, _ = run(tmp_path / "killed", FaultPlan.parse("kill:1:11"))
        assert [event.action for event in runner.events] == ["respawn"]
        assert runner.events[0].resumed_from_step == 8
        assert builds >= 4  # rebuilds on both sides of the kill
        assert head == reference_head
