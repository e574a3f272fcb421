"""Persistent service workers: the processes that execute jobs.

The pool is a list of the same supervised
:class:`~repro.parallel.procs.WorkerProcess` the parallel engine runs
its force workers on, used at the *job* level: each worker is one
long-lived process on its **own private pipe** — assignments are
explicit, so the scheduler always knows which job a dead worker was
holding and can requeue exactly that one — carrying tasks one way and
``started`` / ``progress`` / ``result`` / ``error`` events the other.
Why a pipe per worker and not a shared ``multiprocessing.Queue`` is
that module's docstring: the pool's whole job is to *survive* SIGKILL,
and a respawn swaps in a **fresh** pipe.  Nothing queues invisibly
either — each worker holds at most the one task in
:attr:`WorkerPool._assigned <repro.service.scheduler.BatchService>`'s
books, which the scheduler requeues itself.

Workers are deliberately **non-daemonic**: a job with ``workers > 1``
spawns the parallel engine's (daemonic) worker processes underneath,
and daemonic processes may not have children.  The pool therefore owns
explicit teardown (:meth:`WorkerPool.close`), and the scheduler's
liveness sweep — not process inheritance — is what cleans up after a
crash.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import traceback
import warnings
from collections import deque
from multiprocessing import connection

from repro.parallel.procs import WorkerProcess, stop_all
from repro.service.runner import execute_job
from repro.service.spec import JobSpec

__all__ = ["WorkerPool"]

#: Sentinel task telling a worker to exit its loop.
_STOP = "__stop__"

#: Consecutive deaths *before the ready handshake* after which a slot
#: is retired instead of respawned.  A worker dying at boot will die at
#: every boot (classic cause: a ``spawn`` child cannot re-import the
#: host's ``__main__``), and respawning it forever is a crash loop.
BOOT_FAILURE_LIMIT = 3


def _spawn_can_import_main() -> bool:
    """Whether a ``spawn`` child could re-import this host's ``__main__``.

    ``spawn`` re-runs the parent's main module inside each child.  That
    works for real script files and ``python -m`` packages, but a main
    read from stdin (``python - <<EOF`` heredocs) advertises a
    ``__file__`` of ``<stdin>`` that no child can open — every worker
    would die at boot.  Mirrors the decision order of
    ``multiprocessing.spawn.get_preparation_data``: an importable spec
    wins, no ``__file__`` means nothing to re-run, otherwise the file
    must actually exist.
    """
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return True
    path = getattr(main, "__file__", None)
    return path is None or os.path.exists(path)


def _pool_worker_main(conn, worker_id: int) -> None:
    """One service worker: take a job, run it, report, repeat."""
    try:
        # Check in once the interpreter is actually up: under spawn a
        # worker spends its first ~second importing, and callers that
        # measure steady-state throughput wait for this handshake.
        conn.send(
            {"kind": "ready", "worker": worker_id, "pid": os.getpid()}
        )
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return  # scheduler side is gone; nothing left to serve
        if item == _STOP:
            return
        job_id, spec_data = item

        def emit(payload: dict) -> None:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):
                # The scheduler replaced this incarnation (or died);
                # results for a superseded worker are dropped by design.
                raise SystemExit(0) from None

        emit({"kind": "started", "job": job_id, "worker": worker_id,
              "pid": os.getpid()})
        try:
            spec = JobSpec.from_json(spec_data)
            result = execute_job(
                spec,
                progress=lambda done, total: emit(
                    {"kind": "progress", "job": job_id, "worker": worker_id,
                     "done": done, "total": total}
                ),
                worker_id=worker_id,
            )
            emit({"kind": "result", "job": job_id, "worker": worker_id,
                  "result": result.to_json()})
        except SystemExit:
            raise
        except BaseException:
            emit({"kind": "error", "job": job_id, "worker": worker_id,
                  "error": traceback.format_exc()})


class WorkerPool:
    """A fixed-size pool of persistent job-executing processes.

    Parameters
    ----------
    n_workers:
        Pool size.  Each worker holds at most one job at a time.

    Workers start under ``spawn``.  The host process is multithreaded
    by construction — the scheduler thread respawns workers while
    submitter threads run — and ``fork`` from a multithreaded process
    clones whatever locks (import lock, allocator) happen to be held
    into a child that has no thread to release them, which can deadlock
    the very SIGKILL-recovery respawn the pool exists for.  ``spawn``
    starts each worker from a clean interpreter; the cost is
    per-(re)spawn only, since workers are persistent.  Only when the
    host's ``__main__`` is not importable by a spawn child (stdin-fed
    scripts) does the pool fall back to ``fork``, with a
    :class:`RuntimeWarning`, rather than crash-loop every worker at
    boot.
    """

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        if _spawn_can_import_main():
            start_method = "spawn"
        else:
            start_method = "fork"
            warnings.warn(
                "this host's __main__ is not importable by spawn "
                "children (stdin-fed script?); falling back to the "
                "fork start method — forking a multithreaded "
                "process can deadlock children, so prefer running "
                "from a real script file",
                RuntimeWarning,
                stacklevel=2,
            )
        self._ctx = mp.get_context(start_method)
        #: One supervised process per slot; ``None`` once retired.
        self._workers: list[WorkerProcess | None] = [None] * self.n_workers
        self._event_buffer: deque[dict] = deque()
        #: Per-worker boot handshake received (see ``ready_count``).
        self._ready: list[bool] = [False] * self.n_workers
        #: Consecutive before-ready deaths per slot (see ``respawn``).
        self._boot_failures: list[int] = [0] * self.n_workers
        #: Total processes ever spawned (respawns included).
        self.spawned = 0
        for worker_id in range(self.n_workers):
            self._spawn(worker_id)
        self._closed = False

    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        self._workers[worker_id] = WorkerProcess(
            self._ctx,
            _pool_worker_main,
            (worker_id,),
            name=f"repro-service-worker-{worker_id}",
            daemon=False,  # jobs may spawn engine-worker children
        )
        self._ready[worker_id] = False
        self.spawned += 1

    def assign(self, worker_id: int, job_id: str, spec: JobSpec) -> None:
        """Hand one job to one specific worker.

        A send to a just-died worker is swallowed: the scheduler's
        liveness sweep will find the corpse and requeue the job.
        """
        self._workers[worker_id].send((job_id, spec.to_json()))

    def ready_count(self) -> int:
        """Workers whose boot handshake has been consumed so far.

        Only advances while someone drains :meth:`next_event` (the
        scheduler thread, in service use).
        """
        return sum(self._ready)

    def retired(self, worker_id: int) -> bool:
        """True when this slot hit the boot-failure limit and is dead
        for good (no process, no pipes, no further respawns)."""
        return self._workers[worker_id] is None

    def usable_slots(self) -> int:
        """Slots that still have (or can get) a live worker."""
        return sum(process is not None for process in self._workers)

    def is_alive(self, worker_id: int) -> bool:
        process = self._workers[worker_id]
        return process is not None and process.is_alive()

    def pid(self, worker_id: int) -> int | None:
        process = self._workers[worker_id]
        return None if process is None else process.pid

    def respawn(self, worker_id: int) -> bool:
        """Replace a dead worker with a fresh process on a fresh pipe.

        The dead incarnation's pipe is dropped unread.  Any task the
        corpse held is the scheduler's to requeue (it tracks the one
        in-flight job per worker).

        Returns ``True`` when a fresh process was started.  A worker
        that died *before its ready handshake* was consumed counts as a
        boot failure; after :data:`BOOT_FAILURE_LIMIT` consecutive boot
        failures the slot is **retired** (returns ``False``) instead of
        respawned — the same death would recur at every boot, and an
        unconditional respawn would crash-loop forever.
        """
        worker = self._workers[worker_id]
        if worker is not None:
            worker.stop(_STOP, timeout=1.0)
        if self._ready[worker_id]:
            self._boot_failures[worker_id] = 0  # it booted; a real death
        else:
            self._boot_failures[worker_id] += 1
        if self._boot_failures[worker_id] >= BOOT_FAILURE_LIMIT:
            self._workers[worker_id] = None
            self._ready[worker_id] = False
            return False
        self._spawn(worker_id)
        return True

    def next_event(self, timeout: float = 0.1) -> dict | None:
        """Pop one worker event, or None after ``timeout`` seconds."""
        if self._event_buffer:
            return self._event_buffer.popleft()
        readers = [w.connection for w in self._workers if w is not None]
        if not readers:
            return None
        for conn in connection.wait(readers, timeout):
            try:
                event = conn.recv()
            except (EOFError, OSError):
                # Writer died; the liveness sweep owns the cleanup.
                continue
            if event.get("kind") == "ready":
                self._ready[event["worker"]] = True  # boot handshake
                continue
            self._event_buffer.append(event)
        return self._event_buffer.popleft() if self._event_buffer else None

    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 5.0) -> None:
        """Stop every worker (stop sentinel, then terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        stop_all([w for w in self._workers if w is not None], _STOP, timeout)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
