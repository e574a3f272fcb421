"""Persistent service workers: the child side of the batch service's pool.

Each pool worker is one supervised
:class:`~repro.parallel.procs.WorkerProcess` — the same primitive the
parallel engine runs its force workers on — used at the *job* level:
one long-lived process on its **own private pipe**, carrying tasks one
way and ``ready`` / ``progress`` / ``result`` / ``error`` events the
other.  :class:`~repro.service.scheduler.BatchService` owns the parent
side: one slot per worker, holding at most one job, so the scheduler
always knows which job a dead worker was holding and requeues exactly
that one.  Why a pipe per worker and not a shared
``multiprocessing.Queue`` is the ``procs`` module's docstring: the pool's
whole job is to *survive* SIGKILL, and a respawn swaps in a **fresh**
pipe.

Workers are deliberately **non-daemonic**: a job with ``workers > 1``
spawns the parallel engine's (daemonic) worker processes underneath,
and daemonic processes may not have children.  Teardown is therefore
explicit (:meth:`BatchService.close
<repro.service.scheduler.BatchService.close>`), and a death is seen by
the scheduler through the worker's process sentinel — not through
process inheritance.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import traceback
import warnings

from repro.service.runner import execute_job
from repro.service.spec import JobSpec

__all__ = ["BOOT_FAILURE_LIMIT"]

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


def _start_context():
    """The ``multiprocessing`` context pool workers start under.

    ``spawn``.  The host process is multithreaded by construction — the
    scheduler thread respawns workers while submitter threads run — and
    ``fork`` from a multithreaded process clones whatever locks (import
    lock, allocator) happen to be held into a child that has no thread
    to release them, which can deadlock the very SIGKILL-recovery
    respawn the pool exists for.  ``spawn`` starts each worker from a
    clean interpreter; the cost is per-(re)spawn only, since workers
    are persistent.  Only when the host's ``__main__`` is not importable
    by a spawn child (stdin-fed scripts) does the pool fall back to
    ``fork``, with a :class:`RuntimeWarning`, rather than crash-loop
    every worker at boot.
    """
    if _spawn_can_import_main():
        return mp.get_context("spawn")
    warnings.warn(
        "this host's __main__ is not importable by spawn "
        "children (stdin-fed script?); falling back to the "
        "fork start method — forking a multithreaded "
        "process can deadlock children, so prefer running "
        "from a real script file",
        RuntimeWarning,
        stacklevel=3,
    )
    return mp.get_context("fork")


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
