"""The supervised-process primitive, and the rule that it is the only one."""

import ast
import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.parallel import procs
from repro.parallel.procs import WorkerFailure, WorkerProcess, gather, stop_all

SRC = Path(__file__).resolve().parents[2] / "src"


def _echo(conn, delay):
    """Reply to every message after ``delay`` seconds; stop on ``None``."""
    while (message := conn.recv()) is not None:
        time.sleep(delay)
        conn.send(("echo", message))


@pytest.fixture(params=["fork", "spawn"])
def ctx(request):
    return mp.get_context(request.param)


def _group(ctx, delays):
    return [
        WorkerProcess(ctx, _echo, (delay,), name=f"echo-{i}", daemon=True)
        for i, delay in enumerate(delays)
    ]


class TestGather:
    def test_returns_every_reply_in_worker_order(self, ctx):
        workers = _group(ctx, [0.05, 0.0])
        try:
            for i, worker in enumerate(workers):
                assert worker.send(i)
            assert gather(workers, 10.0) == [("echo", 0), ("echo", 1)]
        finally:
            stop_all(workers, None, 5.0)
        assert not any(worker.is_alive() for worker in workers)

    def test_names_a_killed_worker_with_its_exit_code(self, ctx):
        workers = _group(ctx, [0.0, 30.0])
        try:
            for worker in workers:
                worker.send("x")
            os.kill(workers[1].pid, signal.SIGKILL)
            tick = time.monotonic()
            with pytest.raises(WorkerFailure, match="worker 1 .*exitcode -9") as info:
                gather(workers, 30.0)
            assert time.monotonic() - tick < 5.0  # the sentinel, not the timeout
            assert (info.value.index, info.value.exitcode) == (1, -9)
            # A dead peer is a False, not an exception.
            assert workers[1].send("y") is False
        finally:
            stop_all(workers, None, 5.0)

    def test_names_a_silent_worker_after_the_timeout(self, ctx):
        workers = _group(ctx, [30.0])
        try:
            workers[0].send("x")
            with pytest.raises(WorkerFailure, match="worker 0 .*no reply") as info:
                gather(workers, 0.2)
            assert info.value.exitcode is None
        finally:
            tick = time.monotonic()
            workers[0].stop(None, timeout=0.0)  # busy: terminated, not waited for
            assert time.monotonic() - tick < 5.0
        assert not workers[0].is_alive()
        workers[0].stop(None, timeout=0.0)  # idempotent


def test_process_pipe_and_barrier_calls_live_only_in_the_primitive():
    """One IPC mechanism: nothing else under ``src/`` starts a process,
    opens a pipe or builds a barrier."""
    found: dict[str, set[str]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("Process", "Pipe", "Barrier"):
                found.setdefault(name, set()).add(path.name)
    assert found == {
        "Process": {Path(procs.__file__).name},
        "Pipe": {Path(procs.__file__).name},
    }
