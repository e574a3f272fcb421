"""BatchService scheduling semantics: dedup, coalescing, lifecycle.

Real jobs on a real worker pool, sized to stay fast: small LJ systems,
a handful of steps.  The fault-path tests (worker death, recovery)
live in ``test_fault_recovery.py``.
"""

import sys
import threading
from statistics import median

import pytest

from repro.service import (
    BatchService,
    JobFailedError,
    JobSpec,
    ServiceClosedError,
)


def spec(**overrides) -> JobSpec:
    fields = dict(benchmark="lj", n_atoms=150, steps=6, seed=1)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture(scope="module")
def service():
    with BatchService(2) as svc:
        yield svc


class TestScheduling:
    def test_job_completes_with_physics(self, service):
        result = service.submit(spec()).result(120)
        assert result.steps == 6
        assert result.n_atoms > 0
        assert len(result.state_digest) == 64
        assert result.ts_per_s > 0

    def test_inflight_duplicates_coalesce(self, service):
        one = spec(steps=7)
        a = service.submit(one)
        b = service.submit(one)
        assert a is b  # literally the same handle: one execution
        assert a.submitters >= 2
        assert service.metrics.counter("service_dedup_hits_total").value >= 1
        a.result(120)

    def test_completed_config_is_cache_served(self, service):
        one = spec(steps=8)
        first = service.submit(one).result(120)
        again = service.submit(one).result(5)
        assert not first.cached
        assert again.cached
        assert again.state_digest == first.state_digest

    def test_distinct_configs_get_distinct_results(self, service):
        a = service.submit(spec(seed=3))
        b = service.submit(spec(seed=4))
        assert a.key != b.key
        assert a.result(120).state_digest != b.result(120).state_digest

    def test_map_preserves_input_order(self, service):
        specs = [spec(steps=9), spec(steps=10), spec(steps=9)]
        results = service.map(specs, timeout=120)
        assert [r.steps for r in results] == [9, 10, 9]
        assert results[0].state_digest == results[2].state_digest

    def test_progress_reaches_completion(self, service):
        job = service.submit(spec(steps=11))
        job.result(120)
        done, total = job.progress
        assert (done, total) == (11, 11)

    def test_runtime_failure_raises_job_failed(self, service):
        # 60 atoms make a box smaller than the LJ cutoff demands; the
        # spec is well-formed but the build fails inside the worker.
        job = service.submit(spec(n_atoms=60))
        with pytest.raises(JobFailedError, match="cutoff"):
            job.result(120)
        # The pool survives a failing job and keeps serving.
        assert service.submit(spec(steps=12)).result(120).steps == 12


class TestLifecycle:
    def test_drain_refuses_new_work_and_finishes_old(self):
        svc = BatchService(1)
        job = svc.submit(spec(steps=20, n_atoms=400))
        assert svc.drain(timeout=120)
        with pytest.raises(ServiceClosedError):
            svc.submit(spec(steps=21))
        assert job.done() and job.result(0).steps == 20
        svc.close()

    def test_wait_ready_reports_booted_pool(self):
        with BatchService(1) as svc:
            assert svc.wait_ready(timeout=120)
            assert svc.wait_ready(timeout=0)  # stays ready
            (pid,) = svc.worker_pids
            assert pid is not None

    def test_metrics_flow_through_registry(self):
        with BatchService(1) as svc:
            svc.submit(spec(steps=13)).result(120)
            snapshot = svc.metrics.snapshot()
        assert snapshot["service_jobs_submitted_total"]["value"] == 1
        assert snapshot["service_jobs_completed_total"]["value"] == 1
        assert snapshot["service_job_seconds"]["count"] == 1
        assert "service_queue_depth" in snapshot

    def test_coalesced_failure_counts_every_submitter(self):
        with BatchService(1) as svc:
            a = svc.submit(spec(n_atoms=60))
            b = svc.submit(spec(n_atoms=60))
            assert a is b
            with pytest.raises(JobFailedError, match="cutoff"):
                a.result(120)
            snapshot = svc.metrics.snapshot()
        submitted = snapshot["service_jobs_submitted_total"]["value"]
        completed = snapshot.get("service_jobs_completed_total", {}).get("value", 0)
        failed = snapshot["service_jobs_failed_total"]["value"]
        assert failed == 2
        assert submitted == completed + failed

    def test_dispatch_waits_on_the_submission_not_a_clock(self):
        # An idle, warm worker takes a submitted job at once: the
        # scheduler wakes on the submission itself.
        with BatchService(1) as svc:
            assert svc.wait_ready(timeout=120)
            svc.submit(spec(steps=5, seed=50)).result(120)
            waits = []
            for seed in range(51, 61):
                job = svc.submit(spec(steps=5, seed=seed))
                job.result(120)
                waits.append(job.started_at - job.submitted_at)
        assert median(waits) < 0.010, waits

    def test_concurrent_submitters_lose_no_wakeup(self):
        # More workers than cores, submitters racing the scheduler over
        # coalesces, cache hits and fresh keys: a lost wake-up leaves a
        # handle waiting forever, a lost update breaks the identity.
        handles = []

        def submit_many(offset: int) -> None:
            for i in range(12):
                handles.append(svc.submit(spec(steps=5, seed=200 + (i + offset) % 8)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchService(3) as svc:
                threads = [
                    threading.Thread(target=submit_many, args=(k,)) for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                results = [job.result(120) for job in handles]
                snapshot = svc.metrics.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 48
        assert len({r.state_digest for r in results}) == 8
        submitted = snapshot["service_jobs_submitted_total"]["value"]
        assert submitted == 48
        assert snapshot["service_jobs_completed_total"]["value"] == submitted
        assert snapshot["service_cache_insertions_total"]["value"] == 8
