"""Bounded-pool batch scheduler with content-addressed dedup.

:class:`BatchService` is the in-process heart of ``python -m repro
serve``: callers submit :class:`~repro.service.spec.JobSpec`\\ s from
any thread and get back :class:`Job` handles; a single scheduler
thread owns all dispatch, result collection and worker liveness, so
there is exactly one writer of scheduling state and no lock ordering
to get wrong.

Submission resolves in one of three ways, checked in order:

1. **cache hit** — the spec's content address is already stored; the
   handle completes immediately with a ``cached=True`` copy and no
   worker is touched;
2. **in-flight coalesce** — an identical spec is already queued or
   running; the *same* handle is returned and both submitters wait on
   the one execution (``service_dedup_hits_total``);
3. **enqueue** — a fresh address enters the pending queue and is
   dispatched to the first idle worker.

Worker death is survived at two levels: *inside* a job, the PR-4
``ResilientRunner`` respawns engine workers; if a **pool** worker
itself dies mid-job, the scheduler's liveness sweep respawns the
process and requeues exactly the job it held (bounded by
``max_requeues``, then the job fails loudly).

Queue depth, running count, completions, dedup hits, per-job wall
time and queue latency all flow through one
:class:`~repro.observability.metrics.MetricsRegistry` — the same
registry shape every other subsystem reports into.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque

from repro.observability.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.pool import WorkerPool
from repro.service.spec import JobResult, JobSpec

__all__ = ["BatchService", "Job", "JobFailedError", "ServiceClosedError"]


class JobFailedError(RuntimeError):
    """The job's execution failed (worker traceback in ``args[0]``)."""


class ServiceClosedError(RuntimeError):
    """Submission was attempted after drain/close began."""


class Job:
    """Handle for one submitted spec; shared by coalesced submitters."""

    def __init__(self, job_id: str, spec: JobSpec, key: str):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.status = "pending"  # pending|running|done|failed
        self.progress = (0, spec.steps or 0)
        #: Number of submissions answered by this one execution.
        self.submitters = 1
        self.requeues = 0
        self._result: JobResult | None = None
        self._error: str | None = None
        self._done = threading.Event()
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes; raise if it failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} not done after {timeout}s")
        if self._error is not None:
            raise JobFailedError(self._error)
        assert self._result is not None
        return self._result

    # scheduler-side completion hooks -----------------------------------
    def _finish(self, result: JobResult) -> None:
        self._result = result
        self.status = "done"
        self._done.set()

    def _fail(self, error: str) -> None:
        self._error = error
        self.status = "failed"
        self._done.set()


class BatchService:
    """Accept many jobs; run each unique one once on a bounded pool.

    Parameters
    ----------
    n_workers:
        Pool size (concurrent jobs).
    cache:
        A prebuilt :class:`ResultCache`, or ``None`` to create one.
    cache_dir / max_cache_entries:
        Disk layer / memory bound for the created cache (ignored when
        ``cache`` is given).
    metrics:
        Shared metrics registry; one is created if omitted.
    max_requeues:
        How many pool-worker deaths one job survives before failing.
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        cache: ResultCache | None = None,
        cache_dir=None,
        max_cache_entries: int = 1024,
        metrics: MetricsRegistry | None = None,
        max_requeues: int = 2,
        poll_seconds: float = 0.05,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(
            max_cache_entries, directory=cache_dir, metrics=self.metrics
        )
        self.max_requeues = int(max_requeues)
        self._poll = float(poll_seconds)
        self._pool = WorkerPool(n_workers)
        self._lock = threading.Lock()
        self._pending: deque[Job] = deque()
        #: content address -> live Job (pending or running): the dedup map.
        self._inflight: dict[str, Job] = {}
        #: worker id -> Job it is currently executing.
        self._assigned: dict[int, Job] = {}
        #: job id -> *live* Job (pending or running).  Completed jobs
        #: are dropped here — submitters hold their own handles — so a
        #: long-running service does not grow without bound.
        self.jobs: dict[str, Job] = {}
        self._jobs_seen = 0
        self._accepting = True
        self._stop = threading.Event()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-service-scheduler",
            daemon=True,
        )
        self._scheduler.start()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Submit one spec; returns a handle (possibly already done)."""
        key = spec.cache_key()
        with self._lock:
            if not self._accepting:
                raise ServiceClosedError("service is draining/closed")
            self.metrics.counter("service_jobs_submitted_total").inc()
            cached = self.cache.get(key)
            if cached is not None:
                self._jobs_seen += 1
                job = Job(f"job-{uuid.uuid4().hex[:8]}", spec, key)
                served = JobResult.from_json(cached.to_json())
                served.cached = True
                job._finish(served)
                self.metrics.counter("service_jobs_completed_total").inc()
                return job
            running = self._inflight.get(key)
            if running is not None:
                running.submitters += 1
                self.metrics.counter("service_dedup_hits_total").inc()
                return running
            if self._pool.usable_slots() == 0:
                raise ServiceClosedError(
                    "no usable pool workers: every slot was retired after"
                    " repeated boot failures"
                )
            self._jobs_seen += 1
            job = Job(f"job-{uuid.uuid4().hex[:8]}", spec, key)
            self._inflight[key] = job
            self.jobs[job.id] = job
            self._pending.append(job)
            self._gauge_depths()
            return job

    def map(self, specs, timeout: float | None = None) -> list[JobResult]:
        """Submit a batch and block for all results, in input order."""
        handles = [self.submit(spec) for spec in specs]
        return [job.result(timeout) for job in handles]

    # ------------------------------------------------------------------
    # Scheduler thread: dispatch + collection + liveness
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            self._dispatch()
            event = self._pool.next_event(timeout=self._poll)
            if event is not None:
                self._handle_event(event)
                # Drain whatever else is ready before the next sweep.
                while (event := self._pool.next_event(timeout=0.0)):
                    self._handle_event(event)
            self._sweep_liveness()

    def _dispatch(self) -> None:
        with self._lock:
            for worker_id in range(self._pool.n_workers):
                if not self._pending:
                    break
                if worker_id in self._assigned:
                    continue
                if not self._pool.is_alive(worker_id):
                    continue
                job = self._pending.popleft()
                self._assigned[worker_id] = job
                job.status = "running"
                job.started_at = time.perf_counter()
                self.metrics.histogram("service_queue_wait_seconds").observe(
                    job.started_at - job.submitted_at
                )
                self._pool.assign(worker_id, job.id, job.spec)
            self._gauge_depths()

    def _handle_event(self, event: dict) -> None:
        kind = event.get("kind")
        worker_id = event.get("worker", -1)
        with self._lock:
            job = self._assigned.get(worker_id)
        if job is None or job.id != event.get("job"):
            return  # stale event from a pre-respawn incarnation
        if kind == "progress":
            job.progress = (event["done"], event["total"])
            self.metrics.counter("service_progress_events_total").inc()
            return
        if kind == "result":
            result = JobResult.from_json(event["result"])
            self.cache.put(job.key, result)
            wall = time.perf_counter() - (job.started_at or job.submitted_at)
            self.metrics.histogram("service_job_seconds").observe(wall)
            self.metrics.counter("service_jobs_completed_total").inc(
                job.submitters
            )
            # Complete the handle *before* retiring: drain() unblocks
            # on retire, and its callers must then see done() handles.
            job._finish(result)
            self._retire(worker_id, job)
        elif kind == "error":
            self.metrics.counter("service_jobs_failed_total").inc()
            job._fail(event.get("error", "unknown worker error"))
            self._retire(worker_id, job)

    def _retire(self, worker_id: int, job: Job) -> None:
        with self._lock:
            self._assigned.pop(worker_id, None)
            self._inflight.pop(job.key, None)
            self.jobs.pop(job.id, None)
            self._gauge_depths()

    def _sweep_liveness(self) -> None:
        """Respawn dead pool workers; requeue the jobs they held.

        The held job stays in ``_assigned`` until its fate (requeue or
        fail) is decided, so ``pending()`` never reads 0 mid-respawn —
        a drain racing a worker death must keep waiting.  Safe because
        the scheduler thread is the only event consumer: no result for
        this job can be processed while the sweep holds it.
        """
        for worker_id in range(self._pool.n_workers):
            if self._pool.retired(worker_id) or self._pool.is_alive(worker_id):
                continue
            with self._lock:
                job = self._assigned.get(worker_id)
            if self._pool.respawn(worker_id):
                self.metrics.counter("service_worker_respawns_total").inc()
            else:
                # Slot retired: the worker kept dying before it could
                # boot.  If no slot remains, nothing will ever execute
                # again — fail the whole queue loudly rather than hang.
                self.metrics.counter("service_worker_slots_retired_total").inc()
                if self._pool.usable_slots() == 0:
                    self._fail_all_jobs(
                        "every pool worker slot was retired after repeated"
                        " boot failures (workers died before their ready"
                        " handshake); classic cause: the host __main__ is"
                        " not importable under the spawn start method"
                    )
                    continue
            if job is None:
                continue
            job.requeues += 1
            if job.requeues > self.max_requeues:
                self.metrics.counter("service_jobs_failed_total").inc()
                job._fail(
                    f"pool worker died {job.requeues} times running {job.id}"
                )
                with self._lock:
                    self._assigned.pop(worker_id, None)
                    self._inflight.pop(job.key, None)
                    self.jobs.pop(job.id, None)
                    self._gauge_depths()
                continue
            with self._lock:
                self._assigned.pop(worker_id, None)
                job.status = "pending"
                self._pending.appendleft(job)  # retries jump the queue
                self._gauge_depths()

    def _fail_all_jobs(self, reason: str) -> None:
        """Scheduler thread only: fail every queued and assigned job."""
        with self._lock:
            doomed = list(self._pending) + list(self._assigned.values())
        for job in doomed:
            self.metrics.counter("service_jobs_failed_total").inc()
            job._fail(reason)
        with self._lock:
            self._pending.clear()
            self._assigned.clear()
            self._inflight.clear()
            for job in doomed:
                self.jobs.pop(job.id, None)
            self._gauge_depths()

    def _gauge_depths(self) -> None:
        """Lock held: refresh the queue-shape gauges."""
        self.metrics.gauge("service_queue_depth").set(len(self._pending))
        self.metrics.gauge("service_jobs_running").set(len(self._assigned))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def pending(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._assigned)

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Block until every pool worker has booted and checked in.

        Spawned workers pay a fresh-interpreter start before they can
        take work; throughput measurements call this first so the
        timed window starts from a warm pool.  Submission does not
        require it — jobs queue fine against a booting pool.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._pool.ready_count() >= self._pool.n_workers:
                return True
            time.sleep(self._poll)
        return False

    def drain(self, timeout: float = 300.0) -> bool:
        """Stop accepting work; wait for in-flight jobs to finish."""
        with self._lock:
            self._accepting = False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.pending() == 0:
                return True
            time.sleep(self._poll)
        return False

    def close(self, *, drain: bool = True, timeout: float = 300.0) -> None:
        """Shut the service down (optionally draining in-flight work)."""
        if drain:
            self.drain(timeout)
        else:
            with self._lock:
                self._accepting = False
        self._stop.set()
        self._scheduler.join(timeout=10.0)
        self._pool.close()

    def __enter__(self) -> "BatchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """One JSON-safe snapshot of queue + cache + pool state."""
        with self._lock:
            queued, running = len(self._pending), len(self._assigned)
        return {
            "queued": queued,
            "running": running,
            "workers": self._pool.n_workers,
            "worker_respawns": self._pool.spawned - self._pool.n_workers,
            "jobs_seen": self._jobs_seen,
            "jobs_live": len(self.jobs),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }
