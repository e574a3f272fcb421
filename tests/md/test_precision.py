"""Precision-policy tests: parsing, the RunConfig surface, per-mode
oracle tolerances, and the restart rules for narrow-storage snapshots."""

import warnings

import numpy as np
import pytest

from repro.md import (
    Precision,
    PrecisionPolicy,
    RunConfig,
    Simulation,
    parse_precision,
    policy_for,
)
from repro.md.kernels import get_backend
from repro.md.lattice import lj_melt_system
from repro.md.potentials.lj import LennardJonesCut
from repro.md.restart import SnapshotError, restore_simulation, save_snapshot

MODES = ("single", "mixed", "double")


def _lj_sim(n=256, precision=None, backend=None, seed=7):
    sim = Simulation(
        lj_melt_system(n, seed=seed),
        [LennardJonesCut(cutoff=2.5)],
        dt=0.005,
        skin=0.3,
    )
    if precision is not None:
        sim.set_precision(precision)
    if backend is not None:
        sim.set_backend(backend)
    return sim


# ---------------------------------------------------------------------------
# Parsing and the policy table
# ---------------------------------------------------------------------------
class TestParsePrecision:
    @pytest.mark.parametrize("spec, expected", [
        ("single", Precision.SINGLE),
        ("MIXED", Precision.MIXED),
        ("Double", Precision.DOUBLE),
        ("  double  ", Precision.DOUBLE),
        (Precision.SINGLE, Precision.SINGLE),
        (None, Precision.DOUBLE),
    ])
    def test_accepted_spellings(self, spec, expected):
        assert parse_precision(spec) is expected

    def test_unknown_mode_lists_valid_ones(self):
        with pytest.raises(ValueError, match="'single', 'mixed', 'double'"):
            parse_precision("quad")

    def test_wrong_type_is_type_error(self):
        with pytest.raises(TypeError, match="Precision, str, or None"):
            parse_precision(32)

    def test_policy_dtype_triples(self):
        single = policy_for("single")
        mixed = policy_for("mixed")
        double = policy_for(None)
        assert (single.storage_dtype, single.compute_dtype,
                single.accumulate_dtype) == (np.float32,) * 3
        assert mixed.storage_dtype == np.float64
        assert mixed.compute_dtype == np.float32
        assert mixed.accumulate_dtype == np.float64
        assert double.is_double and not mixed.is_double
        assert policy_for(mixed) is mixed  # pass-through

    def test_enum_reexported_from_md(self):
        import repro.md as md

        assert "Precision" in md.__all__
        assert "RunConfig" in md.__all__
        assert isinstance(policy_for("mixed"), PrecisionPolicy)


# ---------------------------------------------------------------------------
# The engine honors the policy
# ---------------------------------------------------------------------------
class TestEnginePolicy:
    @pytest.mark.parametrize("mode", MODES)
    def test_storage_dtype_and_finite_run(self, mode):
        sim = _lj_sim(precision=mode)
        policy = policy_for(mode)
        assert sim.system.positions.dtype == policy.storage_dtype
        assert sim.system.forces.dtype == policy.storage_dtype
        sim.setup()
        sim.run(5)
        assert np.isfinite(sim.total_energy())
        assert sim.system.positions.dtype == policy.storage_dtype

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_force_tolerance(self, mode):
        """numpy_fast under each mode tracks the float64 numpy_ref
        oracle within the policy's force_rtol on an identical, evolved
        configuration (the t=0 lattice has symmetric near-zero forces)."""
        sim = _lj_sim(n=500, precision=mode)
        sim.setup()
        sim.run(10)
        forces = sim.system.forces.astype(np.float64)

        ref = _lj_sim(n=500, backend=get_backend("numpy_ref"))
        ref.system.positions[...] = sim.system.positions.astype(np.float64)
        ref.setup()
        ref_forces = np.asarray(ref.system.forces, dtype=np.float64)

        err = np.linalg.norm(forces - ref_forces) / np.linalg.norm(ref_forces)
        assert err < policy_for(mode).force_rtol

    def test_double_mode_bitwise_equals_default(self):
        default = _lj_sim()
        default.setup()
        default.run(10)
        explicit = _lj_sim(precision="double")
        explicit.setup()
        explicit.run(10)
        assert np.array_equal(default.system.positions,
                              explicit.system.positions)

    def test_set_precision_reprecisions_serial_engine(self):
        sim = _lj_sim()
        sim.setup()
        sim.run(2)
        sim.set_precision("single")
        assert sim.system.positions.dtype == np.float32
        sim.run(2)
        assert np.isfinite(sim.total_energy())


# ---------------------------------------------------------------------------
# RunConfig and the deprecation shim
# ---------------------------------------------------------------------------
class TestRunConfig:
    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RunConfig(steps=-1)

    def test_typo_precision_fails_fast(self):
        with pytest.raises(ValueError, match="unknown precision mode"):
            _lj_sim(precision="doubble")

    def test_run_config_equivalent_to_bare_int(self):
        a = _lj_sim()
        a.setup()
        a.run(8)
        b = _lj_sim()
        b.setup()
        b.run(RunConfig(steps=8))
        assert np.array_equal(a.system.positions, b.system.positions)

    def test_setters_switch_precision_and_backend(self):
        """What a simulation is belongs to it, not to one run: the
        setters switch it, and ``RunConfig`` carries no such field."""
        sim = _lj_sim()
        sim.setup()
        sim.set_precision("mixed")
        sim.set_backend("numpy_fast")
        sim.run(RunConfig(steps=3))
        assert sim.precision.mode is Precision.MIXED
        assert np.isfinite(sim.total_energy())
        for field in ("precision", "backend", "tracer"):
            with pytest.raises(TypeError, match="unexpected keyword"):
                RunConfig(steps=1, **{field: None})

    def test_config_plus_kwargs_is_type_error(self):
        sim = _lj_sim()
        sim.setup()
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.run(RunConfig(steps=1), reset_timers=True)

    def test_legacy_kwargs_are_type_error(self):
        """``run`` takes an int or a RunConfig and nothing else."""
        sim = _lj_sim()
        sim.setup()
        for kwargs in ({"reset_timers": True}, {"checkpoint": None}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                sim.run(1, **kwargs)
        assert sim.step_number == 0

    def test_bare_int_run_does_not_warn(self):
        sim = _lj_sim()
        sim.setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run(2)


# ---------------------------------------------------------------------------
# Restart rules for narrow-storage snapshots
# ---------------------------------------------------------------------------
class TestPrecisionRestart:
    def test_single_snapshot_roundtrips_float32_bitwise(self, tmp_path):
        sim = _lj_sim(precision="single")
        sim.setup()
        sim.run(5)
        path = tmp_path / "single.npz"
        save_snapshot(sim, path)

        restored = _lj_sim(precision="single")
        restore_simulation(restored, path)
        assert restored.system.positions.dtype == np.float32
        assert np.array_equal(restored.system.positions, sim.system.positions)
        assert np.array_equal(restored.system.velocities,
                              sim.system.velocities)

    def test_cross_mode_restore_refused_without_cast(self, tmp_path):
        sim = _lj_sim(precision="single")
        sim.setup()
        sim.run(3)
        path = tmp_path / "single.npz"
        save_snapshot(sim, path)

        target = _lj_sim(precision="double")
        with pytest.raises(SnapshotError, match="pass cast='double'"):
            restore_simulation(target, path)

    def test_cast_opt_in_converts_explicitly(self, tmp_path):
        sim = _lj_sim(precision="single")
        sim.setup()
        sim.run(3)
        path = tmp_path / "single.npz"
        save_snapshot(sim, path)

        target = _lj_sim(precision="double")
        restore_simulation(target, path, cast="double")
        assert target.system.positions.dtype == np.float64
        assert np.array_equal(
            target.system.positions,
            sim.system.positions.astype(np.float64),
        )
        target.run(2)
        assert np.isfinite(target.total_energy())

    def test_cast_must_match_target_mode(self, tmp_path):
        sim = _lj_sim(precision="single")
        sim.setup()
        save_snapshot(sim, tmp_path / "s.npz")
        target = _lj_sim(precision="double")
        with pytest.raises(SnapshotError, match="does not match"):
            restore_simulation(target, tmp_path / "s.npz", cast="mixed")


# ---------------------------------------------------------------------------
# Simulation / executor policy negotiation (serial-side checks; the
# worker-pool variants live in tests/parallel/test_engine.py)
# ---------------------------------------------------------------------------
class TestPolicyNegotiation:
    def test_explicit_policy_object_accepted(self):
        sim = _lj_sim(precision=policy_for("mixed"))
        assert sim.precision.mode is Precision.MIXED

    def test_conflicting_executor_mode_raises(self):
        from repro.parallel.engine import ParallelForceExecutor

        executor = ParallelForceExecutor(2, precision="single")
        try:
            sim = _lj_sim(precision="double")
            sim.force_executor = executor
            with pytest.raises(ValueError, match="construct both"):
                executor.bind(sim)
        finally:
            executor.close()

    def test_set_precision_refused_on_parallel_executor(self):
        from repro.parallel.engine import ParallelForceExecutor

        executor = ParallelForceExecutor(2, precision="double")
        try:
            sim = _lj_sim()
            sim.force_executor = executor
            executor.bind(sim)
            with pytest.raises(ValueError, match="typed at start-up"):
                sim.set_precision("single")
        finally:
            executor.close()
