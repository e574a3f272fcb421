"""Worker death at both levels: engine workers and pool workers.

The acceptance contract: a worker killed mid-job via the PR-4 fault
plan is respawned and the job completes with a result bitwise-identical
to an uninterrupted run of the same configuration.
"""

import os
import signal
import time

import pytest

from repro.service import (
    BatchService,
    JobFailedError,
    JobSpec,
    ServiceClosedError,
    execute_job,
)
from repro.service.pool import BOOT_FAILURE_LIMIT


def two_worker_spec(**overrides) -> JobSpec:
    fields = dict(
        benchmark="lj", n_atoms=150, steps=16, seed=1, workers=2,
        checkpoint_every=4,
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestEngineWorkerFault:
    """PR-4 fault plan inside a job: ResilientRunner absorbs the kill."""

    def test_killed_engine_worker_job_completes_bitwise(self):
        interrupted = execute_job(two_worker_spec(fault_plan="kill:1:6"))
        clean = execute_job(two_worker_spec())
        assert interrupted.recovery_events >= 1
        assert clean.recovery_events == 0
        assert interrupted.state_digest == clean.state_digest
        assert interrupted.total_energy == clean.total_energy

    def test_fault_plan_shares_the_cache_address(self):
        assert (
            two_worker_spec(fault_plan="kill:1:6").cache_key()
            == two_worker_spec().cache_key()
        )

    def test_faulted_job_through_the_service(self):
        with BatchService(1) as svc:
            job = svc.submit(two_worker_spec(fault_plan="kill:0:5"))
            result = job.result(240)
        assert result.recovery_events >= 1
        assert result.state_digest == execute_job(two_worker_spec()).state_digest


class TestStartMethodProbe:
    """Stdin-fed hosts can't serve spawn children; the default adapts."""

    def test_pytest_host_is_spawn_safe(self):
        from repro.service.pool import _spawn_can_import_main

        assert _spawn_can_import_main()

    def test_stdin_main_falls_back_to_fork(self, monkeypatch):
        import sys
        import types

        from repro.service.pool import _spawn_can_import_main

        fake = types.ModuleType("__main__")
        fake.__file__ = "<stdin>"
        monkeypatch.setitem(sys.modules, "__main__", fake)
        assert not _spawn_can_import_main()
        with pytest.warns(RuntimeWarning, match="not importable by spawn"):
            svc = BatchService(1)
        try:
            assert svc._ctx.get_start_method() == "fork"
        finally:
            svc.close()


class TestBootCrashLoop:
    """A worker dying before its ready handshake must not respawn forever."""

    def test_slot_retires_after_repeated_boot_failures(self, monkeypatch, tmp_path):
        import sys
        import types

        # A spawn child re-runs the host's main file before it can check
        # in; this one exits there, so every boot dies.
        script = tmp_path / "dies_at_import.py"
        script.write_text("raise SystemExit(3)\n")
        fake = types.ModuleType("__main__")
        fake.__file__ = str(script)
        monkeypatch.setitem(sys.modules, "__main__", fake)
        with BatchService(1) as svc:
            job = svc.submit(JobSpec(benchmark="lj", n_atoms=150, steps=5, seed=1))
            started = time.monotonic()
            assert not svc.wait_ready(timeout=60)
            assert time.monotonic() - started < 30
            with pytest.raises(JobFailedError, match="every pool worker slot was retired"):
                job.result(60)
            with pytest.raises(ServiceClosedError):
                svc.submit(JobSpec(benchmark="lj", n_atoms=150, steps=5, seed=2))
            stats = svc.stats()
            assert svc.worker_pids == (None,)
        assert stats["worker_respawns"] == BOOT_FAILURE_LIMIT - 1
        assert stats["metrics"]["service_worker_slots_retired_total"]["value"] == 1
        # The refused submission is not counted: submitted == failed.
        assert stats["metrics"]["service_jobs_submitted_total"]["value"] == 1
        assert stats["metrics"]["service_jobs_failed_total"]["value"] == 1


class TestPoolWorkerDeath:
    """SIGKILL to the pool worker itself: respawn + requeue."""

    def test_job_survives_pool_worker_kill(self):
        with BatchService(1) as svc:
            job = svc.submit(
                JobSpec(benchmark="lj", n_atoms=400, steps=300, seed=1)
            )
            deadline = time.monotonic() + 60
            while job.status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.2)  # let it get properly mid-job
            os.kill(svc.worker_pids[0], signal.SIGKILL)
            result = job.result(240)
            respawns = svc.metrics.counter(
                "service_worker_respawns_total"
            ).value
        assert job.requeues == 1
        assert respawns >= 1
        assert result.steps == 300
        # Re-execution from scratch lands on the uninterrupted digest.
        reference = execute_job(
            JobSpec(benchmark="lj", n_atoms=400, steps=300, seed=1)
        )
        assert result.state_digest == reference.state_digest

    def test_repeated_deaths_fail_the_job_loudly(self):
        with BatchService(1, max_requeues=0) as svc:
            job = svc.submit(
                JobSpec(benchmark="lj", n_atoms=400, steps=400, seed=2)
            )
            deadline = time.monotonic() + 60
            while job.status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            os.kill(svc.worker_pids[0], signal.SIGKILL)
            with pytest.raises(JobFailedError, match="died"):
                job.result(240)
            # The respawned pool still serves fresh work.
            ok = svc.submit(
                JobSpec(benchmark="lj", n_atoms=150, steps=5, seed=3)
            )
            assert ok.result(240).steps == 5
