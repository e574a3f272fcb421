"""Checkpoints are kernel-backend-neutral: a snapshot written under one
backend restores bitwise under any other, and the continued double-
precision trajectories stay within the backend-equivalence tolerance."""

import numpy as np
import pytest

from repro.md.kernels import get_backend
from repro.md.kernels.compiled import compiled_available
from repro.md.lattice import lj_melt_system
from repro.md.potentials.lj import LennardJonesCut
from repro.md.simulation import Simulation
from repro.reliability import CheckpointManager

BACKENDS = ("numpy_ref", "numpy_fast", "compiled")


def _sim(backend):
    sim = Simulation(
        lj_melt_system(256, seed=11),
        [LennardJonesCut(cutoff=2.5)],
        dt=0.005,
        skin=0.3,
    )
    sim.set_backend(get_backend(backend))
    return sim


class TestCrossBackendRestore:
    @pytest.mark.parametrize("source", ["numpy_fast", "compiled"])
    @pytest.mark.parametrize("target", BACKENDS)
    def test_snapshot_restores_across_backends(self, tmp_path, source, target):
        if "compiled" in (source, target) and not compiled_available():
            pytest.skip("no compiled provider on this machine")
        writer = _sim(source)
        writer.setup()
        writer.run(5)
        manager = CheckpointManager(tmp_path, every=0)
        manager.write(writer)
        state = writer.system.positions.copy()
        velocities = writer.system.velocities.copy()
        writer.run(5)
        continued = writer.system.positions.copy()

        restored = _sim(target)
        path, snapshot = manager.restore_latest(restored)
        assert snapshot.step_number == 5
        # State restore is exact regardless of which backend wrote it.
        assert np.array_equal(restored.system.positions, state)
        assert np.array_equal(restored.system.velocities, velocities)

        # Continuation at double precision tracks the writer's backend
        # to the backend-equivalence tolerance over the same 5 steps.
        restored.run(5)
        np.testing.assert_allclose(
            restored.system.positions, continued, rtol=1e-10, atol=1e-10
        )

    def test_same_backend_continuation_is_bitwise(self, tmp_path):
        if not compiled_available():
            pytest.skip("no compiled provider on this machine")
        sim = _sim("compiled")
        sim.setup()
        sim.run(5)
        manager = CheckpointManager(tmp_path, every=0)
        manager.write(sim)
        sim.run(5)

        restored = _sim("compiled")
        manager.restore_latest(restored)
        restored.run(5)
        assert np.array_equal(
            restored.system.positions, sim.system.positions
        )
