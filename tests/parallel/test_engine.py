"""Tests for the shared-memory domain-decomposed parallel engine."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import engine
from repro.parallel.engine import ParallelEngineError, ParallelForceExecutor
from repro.suite import BENCHMARK_NAMES, get_benchmark

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small per-benchmark sizes (chain needs a chain-length multiple).
SIZES = {"lj": 2048, "chain": 2000, "eam": 1372, "rhodo": 1000, "chute": 1800}
SIZES["tersoff"] = 512

#: ``name -> (n_atoms, neighbors/atom after setup + 5 steps)``.
NEIGHBORS_PER_ATOM = {
    "lj": (500, 54.0),
    "eam": (500, 42.0),
    "chain": (400, 3.08),
    "chute": (400, 5.01),
    "rhodo": (300, 57.69899665551839),
    "tersoff": (216, 4.0),
}


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _gone(pid: int) -> bool:
    """No such process, or only its unreaped corpse."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


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

    def test_tail_correction_is_added_once_by_either_driver(self):
        """The LJ tail belongs to the system, not to a row: the engine
        used to drop it (step-0 E = -3392.41 serial, -3166.41 on two
        workers at 500 atoms) and a per-worker hook would multiply it."""

        def step_zero(workers, tail=True):
            sim = get_benchmark("lj").build(500)
            sim.potentials[0].tail_correction = tail
            if workers:
                executor = ParallelForceExecutor(workers)
                sim.force_executor = executor
                executor.bind(sim)
            try:
                sim.setup()
                return sim.potential_energy, sim.virial
            finally:
                sim.close()

        energy, virial = step_zero(0)
        assert energy < step_zero(0, tail=False)[0] - 100.0
        for workers in (1, 2):
            assert step_zero(workers) == pytest.approx((energy, virial), rel=1e-12)

    @pytest.mark.parametrize("backend", ["auto", "numpy_fast"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_neighbors_per_atom_statistic_matches_serial(
        self, name, backend, monkeypatch
    ):
        """Table 2's neighbors/atom after setup and five steps: one
        measurement over the last build, so serial and engine runs on
        either backend (``auto`` is ``compiled`` wherever a C compiler
        is) read the same number, exactly.  The pinned values are what
        the per-rebuild count reported before the measurement replaced
        it."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        n_atoms, expected = NEIGHBORS_PER_ATOM[name]
        serial = _run_serial(name, n_atoms, 5)
        assert serial.neighbor.neighbors_per_atom() == expected
        parallel, _ = _run_parallel(name, n_atoms, 5, workers=2)
        assert parallel.neighbor.neighbors_per_atom() == expected

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


    def test_contact_histories_follow_atoms_across_rebuilds(self):
        """A touching pair whose head changes owner at a rebuild keeps
        its tangential history (the tables travel with the ``rebuild``
        command), so the chute too is decomposition-independent past
        its first rebuild — and stays on the serial trajectory."""
        steps = 140
        serial = _run_serial("chute", 500, steps)
        one, info = _run_parallel("chute", 500, steps, workers=1)
        two, _ = _run_parallel("chute", 500, steps, workers=2)
        assert info["n_builds"] >= 2  # the run did cross a rebuild
        assert one.system.positions.tobytes() == two.system.positions.tobytes()
        assert one.system.velocities.tobytes() == two.system.velocities.tobytes()
        assert np.abs(serial.system.positions - two.system.positions).max() < 1e-10

    def test_spawn_run_is_bitwise_the_fork_one(self, monkeypatch):
        """The start method is the engine's own choice (fork where the
        platform has it); the spawn branch must give the same bits."""
        steps = 6
        forked, _ = _run_parallel("lj", SIZES["lj"], steps, workers=2)
        monkeypatch.setattr(engine, "_start_method", lambda: "spawn")
        spawned, _ = _run_parallel("lj", SIZES["lj"], steps, workers=2)
        assert forked.force_executor._ctx.get_start_method() == "fork"
        assert spawned.force_executor._ctx.get_start_method() == "spawn"
        for name in ("positions", "velocities", "forces"):
            assert (
                getattr(forked.system, name).tobytes()
                == getattr(spawned.system, name).tobytes()
            )
        assert forked.potential_energy == spawned.potential_energy


def test_only_the_chute_bed_declares_a_slab_decomposition():
    """The engine reads the slab rule from the simulation it is bound to."""
    for name, n_atoms in SIZES.items():
        assert get_benchmark(name).build(n_atoms).quasi_2d == (name == "chute")


class TestFailurePaths:
    def test_undersized_box_is_refused_like_the_serial_build(self):
        """The serial build and the engine run the list's one box check."""
        with pytest.raises(ValueError, match="exceeds half") as serial:
            _run_serial("lj", 32, 0)
        with pytest.raises(ValueError, match="exceeds half") as parallel:
            _run_parallel("lj", 32, 0, workers=2)
        assert str(parallel.value) == str(serial.value)

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

    def test_sigkill_between_dispatches_raises_at_once(self):
        """A worker that died while the master was busy elsewhere is
        named by the next dispatch — its sentinel is already ready — not
        waited for until ``barrier_timeout``."""
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=60.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            os.kill(executor.worker_pids[1], signal.SIGKILL)
            executor._workers[1].join(timeout=10.0)
            assert not executor._workers[1].is_alive()
            tick = time.monotonic()
            with pytest.raises(ParallelEngineError, match="worker 1 .*exitcode -9"):
                sim.step()
            assert time.monotonic() - tick < 1.0
            assert executor.worker_pids == ()
            sim.step()  # the next dispatch respawns the pool
            assert executor.spawn_generation == 2
        finally:
            executor.close()

    def test_worker_exception_carries_its_traceback(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ZeroDivisionError("boom in the force pass")

        # Forked workers inherit the patched module.
        monkeypatch.setattr(engine, "OwnerRows", explode)
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=30.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            with pytest.raises(ParallelEngineError) as info:
                sim.setup()
            message = str(info.value)
            assert message.splitlines()[0].endswith(
                "ZeroDivisionError: boom in the force pass"
            )
            assert "Traceback (most recent call last)" in message
            assert "in explode" in message
        finally:
            executor.close()

    def test_workers_exit_when_the_master_vanishes(self):
        """Pipe EOF, not a timeout, ends an orphaned worker — including
        under fork, where later workers inherit (and must drop) the
        master's ends of their older siblings' pipes."""
        script = (
            "import os, signal\n"
            "from repro.parallel.engine import ParallelForceExecutor\n"
            "from repro.suite import get_benchmark\n"
            "sim = get_benchmark('lj').build(600)\n"
            "executor = ParallelForceExecutor(3)\n"
            "sim.force_executor = executor\n"
            "executor.bind(sim)\n"
            "sim.setup()\n"
            "print(*executor.worker_pids, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=_subprocess_env(),
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        pids = [int(word) for word in result.stdout.split()]
        assert len(pids) == 3
        deadline = time.monotonic() + 10.0
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned workers still alive"
            time.sleep(0.05)

    def test_close_is_idempotent(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        sim.setup()
        executor.close()
        executor.close()


#: Drives one run under ``ResilientRunner`` while a thread SIGKILLs a
#: random live worker at random 0-50 ms delays, waiting for each kill to
#: surface as a recovery event before sending the next; then replays the
#: same number of steps uninterrupted and compares bits.  Runs in its own
#: process so that a regression (a hang) costs a timeout, not the suite.
_SIGKILL_SOAK = """
import os, random, signal, sys, tempfile, threading, time
import numpy as np
from repro.parallel.engine import ParallelForceExecutor
from repro.reliability import CheckpointManager, ResilientRunner
from repro.suite import BENCHMARK_NAMES, get_benchmark

name, n_atoms, kills = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

def build():
    sim = get_benchmark(name).build(n_atoms)
    executor = ParallelForceExecutor(2, barrier_timeout=30.0)
    sim.force_executor = executor
    executor.bind(sim)
    return sim, executor

sim, executor = build()
runner = ResilientRunner(
    sim,
    CheckpointManager(tempfile.mkdtemp(), every=5, keep_last=3),
    max_restarts=10**6,
    backoff_seconds=0.0,
)
sent = []  # (worker id, seconds until the recovery event appeared)
stop = threading.Event()

def killer():
    while not stop.is_set() and len(sent) < kills:
        time.sleep(random.uniform(0.0, 0.05))
        pids = executor.worker_pids  # empty between teardown and respawn
        if not pids:
            continue
        victim = random.randrange(len(pids))
        seen = len(runner.events)
        os.kill(pids[victim], signal.SIGKILL)
        tick = time.monotonic()
        while len(runner.events) == seen and time.monotonic() - tick < 20.0:
            time.sleep(0.0005)
        sent.append((victim, time.monotonic() - tick))

thread = threading.Thread(target=killer)
thread.start()
try:
    while len(sent) < kills:
        runner.run(20)
    stop.set()
    thread.join()
    runner.run(20)
finally:
    stop.set()
    executor.close()

assert len(runner.events) == len(sent) == kills, (len(runner.events), len(sent))
for (victim, latency), event in zip(sent, runner.events):
    assert event.action == "respawn", event
    assert f"worker {victim} " in event.error and "exitcode -9" in event.error, (
        victim, event.error)
    assert latency < 1.0, (latency, event.error)

reference, reference_executor = build()
try:
    reference.run(sim.step_number)
finally:
    reference_executor.close()
for array in ("positions", "velocities"):
    assert (getattr(sim.system, array).tobytes()
            == getattr(reference.system, array).tobytes()), array
print(f"{kills} kills recovered bitwise over {sim.step_number} steps; "
      f"slowest detection {max(latency for _, latency in sent) * 1e3:.0f} ms")
"""


class TestRealKills:
    """Asynchronous SIGKILLs — what an OOM killer does — are survivable:
    no lock is shared with the victim, so nothing can be left held."""

    @pytest.mark.parametrize("name, n_atoms", [("lj", 600), ("chute", 500)])
    def test_sigkill_soak_recovers_bitwise(self, name, n_atoms):
        result = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SOAK, name, str(n_atoms), "30"],
            capture_output=True,
            text=True,
            timeout=300,
            env=_subprocess_env(),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "30 kills recovered bitwise" in result.stdout


class TestStructure:
    def test_arena_holds_only_bulk_arrays_and_master_starts_no_thread(self):
        threads = threading.active_count()
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            assert set(executor._arena.specs) == {
                "positions", "velocities", "forces", "energy", "virial",
            }
            n = sim.system.n_atoms
            assert executor.arena_nbytes == (3 * 3 + 2) * 8 * n
            assert threading.active_count() == threads
        finally:
            executor.close()


    def test_a_force_pass_keeps_no_reference_to_the_lists(self):
        """A rebuild drops the old rows *before* building the new ones
        (one list in the worker's peak, not two) — which only works if
        nothing from the last step still holds them."""
        import gc
        import weakref
        from types import SimpleNamespace

        from repro.md.kernels import get_backend
        from repro.parallel.forces import DomainLists
        from repro.parallel.halo import LocalIndex

        sim = get_benchmark("lj").build(500)
        system, box = sim.system, sim.system.box
        index = LocalIndex.build(
            system.positions, box.origin, box.lengths, box.periodic, (1, 1, 1), 0, 2.8
        )
        lists = DomainLists.build(
            index, index.local_positions(system.positions, box.lengths), 2.8
        )
        payload = SimpleNamespace(
            potentials=sim.potentials, periodic=box.periodic,
            n_atoms=system.n_atoms, needs_velocities=False, has_omega=False,
        )
        n = system.n_atoms
        arena = {
            "positions": system.positions, "forces": np.zeros((n, 3)),
            "energy": np.zeros(n), "virial": np.zeros(n),
        }
        statics = {"types": system.types[index.gids], "charges": None}
        counts = engine._force_pass(
            payload, arena, get_backend("numpy_fast"), lists, statics, box.lengths
        )
        assert counts[0] > 0 and np.abs(arena["forces"]).max() > 0
        alive = weakref.ref(lists)
        del lists
        gc.collect()
        assert alive() is None


class TestAttachedPoolPrecision:
    """``sim.force_executor = ex; ex.bind(sim)`` — the idiom every real
    caller uses — settles the pool's precision in ``bind``: never a
    DOUBLE pool under a simulation that says SINGLE."""

    @staticmethod
    def _single_run(executor):
        from repro.md import RunConfig
        from repro.reliability.certify import DigestRecorder

        sim = get_benchmark("lj").build(500)
        sim.set_precision("single")
        sim.force_executor = executor
        executor.bind(sim)
        recorder = DigestRecorder(every=2)
        try:
            sim.run(RunConfig(steps=6, digest=recorder))
            recorder.finalize(sim)
            return recorder.chain.head, executor.arena_nbytes, sim.system.n_atoms
        finally:
            sim.close()

    def test_default_pool_adopts_the_simulations_mode(self):
        default = ParallelForceExecutor(2)
        assert default.precision is None  # nothing asked for yet
        adopted = self._single_run(default)
        explicit = self._single_run(ParallelForceExecutor(2, precision="single"))
        assert default.precision.mode.value == "single"
        assert adopted == explicit
        _, arena_nbytes, n = adopted
        # float32 positions/velocities/forces + float32 energy/virial.
        assert arena_nbytes == (3 * 3 + 2) * 4 * n

    def test_explicit_conflicting_mode_raises_at_bind(self):
        sim = get_benchmark("lj").build(500)
        sim.set_precision("single")
        executor = ParallelForceExecutor(2, precision="double")
        try:
            with pytest.raises(ValueError, match="construct both"):
                executor.bind(sim)
            # Once settled, a pool does not drift to another mode either.
            adopted = ParallelForceExecutor(2)
            adopted.bind(sim)
            other = get_benchmark("lj").build(500)
            with pytest.raises(ValueError, match="'single' but the simulation"):
                adopted.bind(other)
            adopted.close()
        finally:
            executor.close()
            sim.close()


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
    @staticmethod
    def _scale(*extra):
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
                *extra,
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=_subprocess_env(),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return result.stdout

    def test_scale_subcommand_smoke(self):
        """The form the docs list first: no checkpoint manager, no
        metrics registry."""
        stdout = self._scale()
        assert "parity" in stdout
        assert "critical-path speedup" in stdout
        # The rebuild cost on its own lines, not only folded into the
        # critical path.
        assert "serial Neigh:" in stdout
        assert "parallel Neigh:" in stdout
        assert "checkpoint write:" not in stdout

    def test_scale_gates_energy_as_well_as_forces(self, monkeypatch, capsys):
        """Drivers that agree on every force but not on the energy (the
        shape of the dropped LJ tail) must fail the command."""
        from repro.cli import main
        from repro.parallel.forces import OwnerRows

        argv = "scale lj --workers 2 --steps 2 --atoms 500".split()
        argv += ["--backend", "numpy_fast"]  # the body's verbs, not a fused kernel
        assert main(argv) == 0
        assert "OK)" in capsys.readouterr().out
        # Forked workers inherit the patch: their energy slots stay zero.
        monkeypatch.setattr(OwnerRows, "add_energy", lambda *args: None)
        assert main(argv) == 1
        assert "DIVERGED: energy)" in capsys.readouterr().out

    def test_scale_subcommand_reports_checkpoint_writes(self, tmp_path):
        stdout = self._scale(
            "--checkpoint-every", "2", "--checkpoint-dir", str(tmp_path)
        )
        assert "serial Neigh:" in stdout
        assert "parallel Neigh:" in stdout
        assert "checkpoint write:" in stdout
        assert "bytes per write" in stdout
