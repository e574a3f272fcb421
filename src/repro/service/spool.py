"""File-spool transport between ``repro submit`` and ``repro serve``.

The service core (:class:`~repro.service.scheduler.BatchService`) is
in-process; this module gives it a cross-process front door with zero
dependencies beyond the filesystem — the same judgment call the rest
of the repo makes (JSONL metrics, file checkpoints).  A spool
directory holds four subdirectories:

``pending/``
    One ``<ticket>.json`` per submitted job, written atomically
    (temp name + ``os.replace``) so the server never reads a partial
    spec.
``claimed/``
    The server *claims* a pending file by renaming it here — rename is
    atomic, so two servers polling one spool can never double-run a
    ticket.
``tickets/``
    The server's reply: ``<ticket>.json`` with the full job result (or
    the failure), which the submitting client polls for.
``cache/``
    The service's disk result cache — content-addressed, shared across
    server restarts, so a resubmitted config is answered without
    touching a worker even by a *fresh* server process.

Graceful drain: on SIGTERM/SIGINT the server stops claiming, lets
in-flight jobs finish, answers their tickets, and exits; unclaimed
``pending/`` files survive untouched for the next server.

Claimed files are deleted once their ticket is answered, so anything
left in ``claimed/`` is a job that never produced a reply.  Two paths
recover those instead of losing them: a starting server moves
unanswered claims back to ``pending/`` (a SIGKILLed predecessor's
in-flight work reruns instead of silently timing out the client), and
a draining server whose drain *times out* returns its still-open
claims the same way.  The recovery assumes claims found at startup are
orphaned — with several servers deliberately sharing one spool, a new
server can requeue a ticket a live sibling is still running; results
are content-cached, so the cost is a wasted execution, never a wrong
answer.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
from pathlib import Path

from repro.atomicio import atomic_write
from repro.service.scheduler import BatchService, Job
from repro.service.spec import JobResult, JobSpec

__all__ = ["SpoolClient", "SpoolServer", "spool_layout"]


def spool_layout(spool_dir: str | Path) -> dict[str, Path]:
    """Create (if needed) and return the spool's subdirectories."""
    root = Path(spool_dir)
    layout = {
        name: root / name for name in ("pending", "claimed", "tickets", "cache")
    }
    for path in layout.values():
        path.mkdir(parents=True, exist_ok=True)
    return layout


def _atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


class SpoolClient:
    """Submit specs into a spool and wait for their tickets."""

    def __init__(self, spool_dir: str | Path):
        self.layout = spool_layout(spool_dir)

    def submit(self, spec: JobSpec) -> str:
        """Drop one job into ``pending/``; returns the ticket id."""
        ticket = uuid.uuid4().hex
        _atomic_write_json(
            self.layout["pending"] / f"{ticket}.json",
            {"ticket": ticket, "spec": spec.to_json()},
        )
        return ticket

    def wait(
        self, ticket: str, *, timeout: float = 600.0, poll: float = 0.1
    ) -> JobResult:
        """Block until the server answers ``ticket``; raise on failure."""
        path = self.layout["tickets"] / f"{ticket}.json"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if path.exists():
                try:
                    reply = json.loads(path.read_text())
                except json.JSONDecodeError:
                    time.sleep(poll)  # raced a partially-visible reply
                    continue
                if reply.get("status") == "done":
                    return JobResult.from_json(reply["result"])
                raise RuntimeError(
                    f"ticket {ticket} failed: {reply.get('error', '?')}"
                )
            time.sleep(poll)
        raise TimeoutError(f"no reply for ticket {ticket} after {timeout}s")

    def run(self, spec: JobSpec, *, timeout: float = 600.0) -> JobResult:
        return self.wait(self.submit(spec), timeout=timeout)


class SpoolServer:
    """Poll a spool directory and feed its jobs to a BatchService."""

    def __init__(
        self,
        spool_dir: str | Path,
        service: BatchService,
        *,
        poll: float = 0.1,
    ):
        self.layout = spool_layout(spool_dir)
        self.service = service
        self.poll = float(poll)
        #: ticket id -> Job handle still awaiting completion.
        self._open: dict[str, Job] = {}
        self.answered = 0
        self._stop = threading.Event()
        self._recover_claimed()

    # ------------------------------------------------------------------
    def request_stop(self, *_args) -> None:
        """Signal-safe: ask the serve loop to drain and exit."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self.request_stop)
        signal.signal(signal.SIGINT, self.request_stop)

    # ------------------------------------------------------------------
    def _recover_claimed(self) -> None:
        """Put orphaned claims back into circulation.

        A claim whose ticket was answered is a leftover to delete; one
        without an answer belonged to a server that died (or drained
        out) mid-job — return it to ``pending/`` so it runs again
        rather than leaving its client to time out.
        """
        for path in sorted(self.layout["claimed"].glob("*.json")):
            try:
                if (self.layout["tickets"] / path.name).exists():
                    path.unlink()
                else:
                    os.replace(path, self.layout["pending"] / path.name)
            except FileNotFoundError:
                continue  # raced another recovering server

    def _claim_pending(self) -> None:
        for path in sorted(self.layout["pending"].glob("*.json")):
            claimed = self.layout["claimed"] / path.name
            try:
                os.replace(path, claimed)  # atomic claim
            except FileNotFoundError:
                continue  # another server got it first
            try:
                request = json.loads(claimed.read_text())
                ticket = request["ticket"]
                spec = JobSpec.from_json(request["spec"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                ticket = path.stem
                self._answer(ticket, error=f"bad request: {e}")
                continue
            try:
                self._open[ticket] = self.service.submit(spec)
            except Exception as e:  # noqa: BLE001 - report, keep serving
                self._answer(ticket, error=str(e))

    def _answer_done(self) -> None:
        for ticket in [t for t, job in self._open.items() if job.done()]:
            job = self._open.pop(ticket)
            try:
                result = job.result(timeout=0)
            except Exception as e:  # noqa: BLE001 - failure goes in reply
                self._answer(ticket, error=str(e))
                continue
            self._answer(ticket, result=result)

    def _answer(self, ticket: str, *, result=None, error=None) -> None:
        reply: dict = {"ticket": ticket}
        if error is None:
            reply["status"] = "done"
            reply["result"] = result.to_json()
        else:
            reply["status"] = "failed"
            reply["error"] = str(error)
        _atomic_write_json(self.layout["tickets"] / f"{ticket}.json", reply)
        claimed = self.layout["claimed"] / f"{ticket}.json"
        try:
            claimed.unlink()  # answered: the claim is spent
        except FileNotFoundError:
            pass
        self.answered += 1

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One poll cycle: claim new work, answer finished work."""
        if not self._stop.is_set():
            self._claim_pending()
        self._answer_done()

    def serve_forever(self, *, max_seconds: float | None = None) -> None:
        """Run until a stop signal (then drain in-flight and answer)."""
        deadline = None if max_seconds is None else (
            time.monotonic() + max_seconds
        )
        while not self._stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            self.step()
            time.sleep(self.poll)
        # Drain: no new claims; finish and answer what is in flight.
        self.service.drain()
        self._answer_done()
        # Drain timed out with jobs still unfinished: hand their claims
        # back to pending/ so the next server completes them instead of
        # the tickets silently dying with this process.
        for ticket in list(self._open):
            self._open.pop(ticket)
            claimed = self.layout["claimed"] / f"{ticket}.json"
            try:
                os.replace(claimed, self.layout["pending"] / claimed.name)
            except FileNotFoundError:
                pass
