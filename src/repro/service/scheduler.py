"""Bounded-pool batch scheduler with content-addressed dedup.

:class:`BatchService` is the in-process heart of ``python -m repro
serve``: callers submit :class:`~repro.service.spec.JobSpec`\\ s from
any thread and get back :class:`Job` handles; a single scheduler
thread owns all dispatch, result collection and worker supervision, so
there is exactly one writer of scheduling state and no lock ordering
to get wrong.  That thread sleeps in one ``connection.wait`` over every
worker's pipe, every worker's process sentinel and a wake-up pipe that
:meth:`BatchService.submit` and :meth:`BatchService.close` write to: a
submission, an event and a death each wake it at once, and nothing
polls.

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
itself dies mid-job, its sentinel wakes the scheduler, which respawns
the process and requeues exactly the job it held (bounded by
``max_requeues``, then the job fails loudly).

Queue depth, running count, completions, dedup hits, per-job wall
time and queue latency all flow through one
:class:`~repro.observability.metrics.MetricsRegistry` — the same
registry shape every other subsystem reports into.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro.observability.metrics import MetricsRegistry
from repro.parallel.procs import WorkerProcess, stop_all
from repro.service.cache import ResultCache
from repro.service.pool import (
    _STOP,
    BOOT_FAILURE_LIMIT,
    _pool_worker_main,
    _start_context,
)
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


@dataclass
class _Slot:
    """One pool-worker slot.  Only the scheduler thread writes it; other
    threads read it under the service lock."""

    #: The supervised process; ``None`` once the slot is retired.
    worker: WorkerProcess | None = None
    #: The job this worker is executing (at most one).
    job: Job | None = None
    #: Boot handshake received from the current incarnation.
    ready: bool = False
    #: Consecutive deaths before the handshake (see ``_bury``).
    boot_failures: int = 0


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
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(
            max_cache_entries, directory=cache_dir, metrics=self.metrics
        )
        self.max_requeues = int(max_requeues)
        self._lock = threading.Lock()
        #: Notified by the scheduler thread after every wake it handled.
        self._changed = threading.Condition(self._lock)
        self._pending: deque[Job] = deque()
        #: content address -> live Job (pending or running): the dedup map.
        self._inflight: dict[str, Job] = {}
        #: job id -> *live* Job (pending or running).  Completed jobs
        #: are dropped here — submitters hold their own handles — so a
        #: long-running service does not grow without bound.
        self.jobs: dict[str, Job] = {}
        self._jobs_seen = 0
        self._accepting = True
        self._stop = threading.Event()
        # The self-pipe: a non-blocking write end, so a full pipe (a
        # wake-up already pending) never blocks a submitter.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._ctx = _start_context()
        self._slots = [_Slot() for _ in range(int(n_workers))]
        #: Total processes ever spawned (respawns included).
        self._spawned = 0
        for worker_id in range(len(self._slots)):
            self._spawn(worker_id)
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
            cached = self.cache.get(key)
            running = self._inflight.get(key)
            if cached is None and running is None and all(
                slot.worker is None for slot in self._slots
            ):
                raise ServiceClosedError(
                    "no usable pool workers: every slot was retired after"
                    " repeated boot failures"
                )
            self.metrics.counter("service_jobs_submitted_total").inc()
            if cached is not None:
                self._jobs_seen += 1
                job = Job(f"job-{uuid.uuid4().hex[:8]}", spec, key)
                served = JobResult.from_json(cached.to_json())
                served.cached = True
                job._finish(served)
                self.metrics.counter("service_jobs_completed_total").inc()
                return job
            if running is not None:
                running.submitters += 1
                self.metrics.counter("service_dedup_hits_total").inc()
                return running
            self._jobs_seen += 1
            job = Job(f"job-{uuid.uuid4().hex[:8]}", spec, key)
            self._inflight[key] = job
            self.jobs[job.id] = job
            self._pending.append(job)
            self._gauge_depths()
            self._wake()
            return job

    def map(self, specs, timeout: float | None = None) -> list[JobResult]:
        """Submit a batch and block for all results, in input order."""
        handles = [self.submit(spec) for spec in specs]
        return [job.result(timeout) for job in handles]

    def _wake(self) -> None:
        """Lock held: make the scheduler's wait return."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: a wake-up is already pending

    # ------------------------------------------------------------------
    # Scheduler thread: dispatch, collection, supervision
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            self._dispatch()
            waitables = [self._wake_r]
            for slot in self._slots:
                if slot.worker is not None:
                    waitables += [slot.worker.connection, slot.worker.sentinel]
            self._serve(connection.wait(waitables, None))

    def _serve(self, ready: list) -> None:
        """Handle one wake: every readable pipe is read before any death
        is acted on, so a result sent just before a death is delivered."""
        if self._wake_r in ready:
            os.read(self._wake_r, 65536)
        dead = []
        for worker_id, slot in enumerate(self._slots):
            worker = slot.worker
            if worker is None:
                continue
            died = worker.sentinel in ready
            if worker.connection in ready or died:
                if not self._receive(slot) or died:
                    dead.append(worker_id)
        for worker_id in dead:
            self._bury(worker_id)
        with self._changed:
            self._changed.notify_all()

    def _receive(self, slot: _Slot) -> bool:
        """Handle every event waiting on a slot's pipe; ``False`` once
        the pipe reads EOF (the worker is gone, or about to be)."""
        conn = slot.worker.connection
        while True:
            try:
                if not conn.poll():
                    return True
                event = conn.recv()
            except (EOFError, OSError):
                return False
            self._handle_event(slot, event)

    def _dispatch(self) -> None:
        with self._lock:
            for slot in self._slots:
                if not self._pending:
                    break
                if slot.worker is None or slot.job is not None:
                    continue
                job = self._pending.popleft()
                slot.job = job
                job.status = "running"
                job.started_at = time.perf_counter()
                self.metrics.histogram("service_queue_wait_seconds").observe(
                    job.started_at - job.submitted_at
                )
                # A send to a just-died worker is swallowed: its
                # sentinel wakes the scheduler, which requeues the job.
                slot.worker.send((job.id, job.spec.to_json()))
            self._gauge_depths()

    def _handle_event(self, slot: _Slot, event: dict) -> None:
        kind = event.get("kind")
        if kind == "ready":
            slot.ready = True  # boot handshake
            return
        job = slot.job
        if job is None or job.id != event.get("job"):
            return  # not the job this slot holds
        if kind == "progress":
            job.progress = (event["done"], event["total"])
            self.metrics.counter("service_progress_events_total").inc()
            return
        if kind == "result":
            result = JobResult.from_json(event["result"])
            self.cache.put(job.key, result)
            wall = time.perf_counter() - (job.started_at or job.submitted_at)
            self.metrics.histogram("service_job_seconds").observe(wall)
            self._settle(slot, result=result)
        elif kind == "error":
            self._settle(slot, error=event.get("error", "unknown worker error"))

    def _settle(self, slot: _Slot, *, result=None, error=None) -> None:
        """Answer the slot's job: forget it, count every submitter, and
        complete the handle — all under the lock, so a waiter never sees
        the slot free before the handle is done."""
        with self._lock:
            job, slot.job = slot.job, None
            self._answer(job, result, error)
            self._gauge_depths()

    def _answer(self, job: Job, result, error) -> None:
        """Lock held: out of ``_inflight`` no submitter can coalesce onto
        the job any more, so ``job.submitters`` is final when counted."""
        self._inflight.pop(job.key, None)
        self.jobs.pop(job.id, None)
        if error is None:
            self.metrics.counter("service_jobs_completed_total").inc(
                job.submitters
            )
            job._finish(result)
        else:
            self.metrics.counter("service_jobs_failed_total").inc(
                job.submitters
            )
            job._fail(error)

    def _spawn(self, worker_id: int) -> None:
        slot = self._slots[worker_id]
        slot.worker = WorkerProcess(
            self._ctx,
            _pool_worker_main,
            (worker_id,),
            name=f"repro-service-worker-{worker_id}",
            daemon=False,  # jobs may spawn engine-worker children
        )
        slot.ready = False
        self._spawned += 1

    def _bury(self, worker_id: int) -> None:
        """Respawn a dead worker on a fresh pipe; requeue its job.

        A worker that died *before its ready handshake* counts as a
        boot failure; after :data:`BOOT_FAILURE_LIMIT` consecutive boot
        failures the slot is **retired** instead — the same death would
        recur at every boot, and an unconditional respawn would
        crash-loop forever.  The held job stays on the slot until its
        fate (requeue or fail) is decided under the lock, so
        ``pending()`` never reads 0 mid-respawn.
        """
        slot = self._slots[worker_id]
        slot.worker.stop(_STOP, timeout=1.0)
        slot.boot_failures = 0 if slot.ready else slot.boot_failures + 1
        if slot.boot_failures < BOOT_FAILURE_LIMIT:
            self._spawn(worker_id)
            self.metrics.counter("service_worker_respawns_total").inc()
        else:
            with self._lock:
                slot.worker, slot.ready = None, False
            self.metrics.counter("service_worker_slots_retired_total").inc()
            if all(other.worker is None for other in self._slots):
                # Nothing will ever execute again: fail the whole
                # queue loudly rather than hang.
                self._fail_all_jobs(
                    "every pool worker slot was retired after repeated"
                    " boot failures (workers died before their ready"
                    " handshake); classic cause: the host __main__ is"
                    " not importable under the spawn start method"
                )
                return
        job = slot.job
        if job is None:
            return
        job.requeues += 1
        if job.requeues > self.max_requeues:
            self._settle(
                slot,
                error=f"pool worker died {job.requeues} times running {job.id}",
            )
            return
        with self._lock:
            slot.job = None
            job.status = "pending"
            self._pending.appendleft(job)  # retries jump the queue
            self._gauge_depths()

    def _fail_all_jobs(self, reason: str) -> None:
        """Scheduler thread only: fail every queued and held job."""
        with self._lock:
            doomed = list(self._pending)
            doomed += [slot.job for slot in self._slots if slot.job is not None]
            self._pending.clear()
            for slot in self._slots:
                slot.job = None
            for job in doomed:
                self._answer(job, None, reason)
            self._gauge_depths()

    def _running(self) -> int:
        """Lock held: jobs held by a worker."""
        return sum(slot.job is not None for slot in self._slots)

    def _gauge_depths(self) -> None:
        """Lock held: refresh the queue-shape gauges."""
        self.metrics.gauge("service_queue_depth").set(len(self._pending))
        self.metrics.gauge("service_jobs_running").set(self._running())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def pending(self) -> int:
        with self._lock:
            return len(self._pending) + self._running()

    @property
    def worker_pids(self) -> tuple[int | None, ...]:
        """Process ids of the pool, by worker id (``None`` for a
        retired slot)."""
        with self._lock:
            return tuple(
                None if slot.worker is None else slot.worker.pid
                for slot in self._slots
            )

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Block until every pool worker has booted and checked in.

        Spawned workers pay a fresh-interpreter start before they can
        take work; throughput measurements call this first so the
        timed window starts from a warm pool.  Submission does not
        require it — jobs queue fine against a booting pool.  Returns
        ``False`` after ``timeout`` seconds, or as soon as a slot is
        retired (it will never check in).
        """
        with self._changed:
            self._changed.wait_for(
                lambda: all(slot.ready for slot in self._slots)
                or any(slot.worker is None for slot in self._slots),
                timeout,
            )
            return all(slot.ready for slot in self._slots)

    def drain(self, timeout: float = 300.0) -> bool:
        """Stop accepting work; wait for in-flight jobs to finish."""
        with self._changed:
            self._accepting = False
            return self._changed.wait_for(
                lambda: not self._pending and not self._running(), timeout
            )

    def close(self, *, drain: bool = True, timeout: float = 300.0) -> None:
        """Shut the service down (optionally draining in-flight work)."""
        if self._stop.is_set():
            return
        if drain:
            self.drain(timeout)
        with self._lock:
            self._accepting = False
            self._stop.set()
            self._wake()
        self._scheduler.join(timeout=10.0)
        stop_all(
            [slot.worker for slot in self._slots if slot.worker is not None],
            _STOP,
            5.0,
        )
        os.close(self._wake_r)
        os.close(self._wake_w)

    def __enter__(self) -> "BatchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """One JSON-safe snapshot of queue + cache + pool state."""
        with self._lock:
            queued, running = len(self._pending), self._running()
        return {
            "queued": queued,
            "running": running,
            "workers": len(self._slots),
            "worker_respawns": self._spawned - len(self._slots),
            "jobs_seen": self._jobs_seen,
            "jobs_live": len(self.jobs),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }
