"""The supervised worker process both pools are built on.

A :class:`WorkerProcess` is one child process plus one private duplex
pipe to it; :func:`gather` collects one reply from each of a group and
:func:`stop_all` ends a group.  The parallel engine's force workers and
the batch service's job workers are both lists of these — this module
holds the only ``Process(`` and ``Pipe(`` calls in the package.

Why a private pipe per worker and nothing shared: every
``multiprocessing`` primitive that synchronises through a semaphore in
shared memory (queues, barriers, locks) is wedged for good by a peer
SIGKILLed while holding it, and so is every process that touches
it afterwards, the replacement worker included.  A pipe has one writer
and one reader per direction and no lock to orphan: a dead peer is an
``EOFError``/``BrokenPipeError`` on the survivor's side, and a respawn
starts on a **fresh** pipe, so whatever a dying worker half-wrote never
reaches its successor.  Death itself is reported by the kernel — the
process *sentinel* becomes readable when the child exits — so nothing
polls: :func:`gather` sleeps in one ``connection.wait`` on the pipes
and the sentinels together.
"""

from __future__ import annotations

import time
from multiprocessing import connection, util

__all__ = ["WorkerProcess", "WorkerFailure", "gather", "stop_all"]


class WorkerFailure(RuntimeError):
    """Worker ``index`` of a gathered group died (``exitcode`` set,
    negative for a signal) or stayed silent (``exitcode`` ``None``)."""

    def __init__(self, index: int, exitcode: int | None, message: str):
        super().__init__(message)
        self.index = index
        self.exitcode = exitcode


class WorkerProcess:
    """One child process on a fresh duplex pipe.

    ``target(conn, *args)`` runs in the child with its end of the pipe;
    the parent keeps :attr:`connection` and closes its copy of the
    child's end, so each side sees EOF as soon as the other is gone.
    ``ctx`` is the ``multiprocessing`` context (start method) to use.
    """

    def __init__(self, ctx, target, args=(), *, name: str, daemon: bool):
        self.connection, child_end = ctx.Pipe(duplex=True)
        # A forked child inherits the parent's end of its own pipe and
        # of every sibling started before it; while any copy is open a
        # worker whose master vanished would never read EOF.
        util.register_after_fork(self, lambda self: self.connection.close())
        self._process = ctx.Process(
            target=target, args=(child_end, *args), name=name, daemon=daemon
        )
        try:
            self._process.start()
        finally:
            child_end.close()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    @property
    def exitcode(self) -> int | None:
        return self._process.exitcode

    @property
    def sentinel(self) -> int:
        """Handle that becomes ready when the process exits."""
        return self._process.sentinel

    def is_alive(self) -> bool:
        return not self.connection.closed and self._process.is_alive()

    def join(self, timeout: float | None = None) -> None:
        self._process.join(timeout)

    def send(self, message) -> bool:
        """Send one message; ``False`` (not an exception) if the peer
        is gone — whoever supervises the worker finds the corpse."""
        try:
            self.connection.send(message)
        except OSError:  # BrokenPipeError, or the pipe is closed
            return False
        return True

    def stop(self, message, timeout: float) -> None:
        """Stop message → join → terminate a straggler → close the pipe
        (idempotent, and safe on a worker that is already dead)."""
        stop_all([self], message, timeout)

    def _reap(self, timeout: float) -> None:
        if self.connection.closed:  # stopped before
            return
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self.connection.close()
        if not self._process.is_alive():
            self._process.close()  # releases the sentinel


def stop_all(workers, message, timeout: float) -> None:
    """Stop a group: every worker gets ``message`` before any is joined
    (so they exit side by side), stragglers past ``timeout`` seconds
    are terminated, and every pipe is closed."""
    for worker in workers:
        worker.send(message)
    for worker in workers:
        worker._reap(timeout)


def gather(workers, timeout: float) -> list:
    """One reply from every worker, in ``workers`` order.

    Sleeps on the workers' pipes *and* process sentinels, so a reply, a
    death and the deadline are all noticed by the same wait.  Raises
    :class:`WorkerFailure` naming the first worker found dead or, once
    ``timeout`` seconds have passed, the first one still silent; the
    caller is expected to tear the group down.
    """
    replies: list = [None] * len(workers)
    pending = list(range(len(workers)))
    deadline = time.monotonic() + timeout
    while pending:
        waitables = [workers[i].connection for i in pending]
        waitables += [workers[i].sentinel for i in pending]
        ready = connection.wait(waitables, max(0.0, deadline - time.monotonic()))
        if not ready:
            silent = pending[0]
            raise WorkerFailure(
                silent,
                None,
                f"worker {silent} (pid {workers[silent].pid}) sent no reply "
                f"within {timeout:g} s",
            )
        for i in list(pending):
            worker = workers[i]
            if worker.connection in ready:
                try:
                    replies[i] = worker.connection.recv()
                except (EOFError, OSError):
                    pass  # died, possibly mid-send
                else:
                    pending.remove(i)
                    continue
            elif worker.sentinel not in ready:
                continue
            # The pipe and sentinel close just before the process turns
            # waitable; give the exit code a moment to appear.
            worker.join(timeout=1.0)
            raise WorkerFailure(
                i,
                worker.exitcode,
                f"worker {i} (pid {worker.pid}) exited with exitcode "
                f"{worker.exitcode}",
            )
    return replies
