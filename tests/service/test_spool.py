"""Spool transport: the serve/submit file protocol, including drain."""

import json
import os
import threading
import time

import pytest

from repro.service import BatchService, JobSpec, SpoolClient, SpoolServer
from repro.service.spool import spool_layout


def spec(**overrides) -> JobSpec:
    fields = dict(benchmark="lj", n_atoms=150, steps=5, seed=1)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture()
def spool(tmp_path):
    svc = BatchService(1, cache_dir=tmp_path / "spool" / "cache")
    server = SpoolServer(tmp_path / "spool", svc, poll=0.02)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"max_seconds": 120}, daemon=True
    )
    thread.start()
    yield tmp_path / "spool", server
    server.request_stop()
    thread.join(timeout=120)
    svc.close()


class TestRoundTrip:
    def test_submit_wait_returns_result(self, spool):
        root, _server = spool
        client = SpoolClient(root)
        result = client.run(spec(), timeout=120)
        assert result.steps == 5
        assert not result.cached

    def test_resubmission_is_cache_served(self, spool):
        root, _server = spool
        client = SpoolClient(root)
        first = client.run(spec(steps=6), timeout=120)
        again = client.run(spec(steps=6), timeout=120)
        assert again.cached
        assert again.state_digest == first.state_digest

    def test_bad_request_gets_failed_ticket(self, spool):
        root, _server = spool
        client = SpoolClient(root)
        ticket = "deadbeef"
        (root / "pending" / f"{ticket}.json").write_text(
            json.dumps({"ticket": ticket, "spec": {"benchmark": "gromacs"}})
        )
        with pytest.raises(RuntimeError, match="failed"):
            client.wait(ticket, timeout=120)

    def test_claim_is_spent_after_answer(self, spool):
        root, _server = spool
        client = SpoolClient(root)
        client.run(spec(steps=7), timeout=120)
        assert list((root / "pending").glob("*.json")) == []
        # The claimed file is deleted once the ticket is answered (the
        # unlink lands just after the reply write, hence the grace
        # loop) — a surviving claim would mean an unanswered job.
        deadline = time.monotonic() + 5
        while list((root / "claimed").glob("*.json")):
            assert time.monotonic() < deadline, "claim never cleaned up"
            time.sleep(0.02)


class TestDrain:
    def test_stop_answers_inflight_and_leaves_new_pending(self, tmp_path):
        svc = BatchService(1)
        server = SpoolServer(tmp_path / "s", svc, poll=0.02)
        client = SpoolClient(tmp_path / "s")
        ticket = client.submit(spec(steps=8))
        server.step()  # claim + submit to the service
        server.request_stop()
        server.serve_forever()  # returns immediately: drains, answers
        result = client.wait(ticket, timeout=5)
        assert result.steps == 8
        # Submissions after the drain stay untouched in pending/ for
        # the next server process.
        late = client.submit(spec(steps=9))
        server.step()
        assert (tmp_path / "s" / "pending" / f"{late}.json").exists()
        svc.close()

    def test_orphaned_claim_is_recovered_on_startup(self, tmp_path):
        # A server SIGKILLed mid-job leaves its claim behind with no
        # answer; a fresh server must requeue it, not lose the ticket.
        root = tmp_path / "s"
        client = SpoolClient(root)
        ticket = client.submit(spec(steps=14))
        os.replace(
            root / "pending" / f"{ticket}.json",
            root / "claimed" / f"{ticket}.json",
        )
        svc = BatchService(1)
        server = SpoolServer(root, svc, poll=0.02)
        assert (root / "pending" / f"{ticket}.json").exists()
        deadline = time.monotonic() + 120
        while not (root / "tickets" / f"{ticket}.json").exists():
            assert time.monotonic() < deadline, "ticket never answered"
            server.step()
            time.sleep(0.02)
        assert client.wait(ticket, timeout=5).steps == 14
        svc.close()

    def test_answered_claim_is_deleted_not_requeued(self, tmp_path):
        layout = spool_layout(tmp_path / "s")
        (layout["claimed"] / "t1.json").write_text("{}")
        (layout["tickets"] / "t1.json").write_text("{}")
        svc = BatchService(1)
        SpoolServer(tmp_path / "s", svc, poll=0.02)
        assert not (layout["claimed"] / "t1.json").exists()
        assert list(layout["pending"].glob("*.json")) == []
        svc.close()

    def test_cache_survives_server_restart(self, tmp_path):
        root = tmp_path / "s"

        def pump(server, client, ticket):
            # Drive the serve loop by hand until the ticket is answered.
            deadline = time.monotonic() + 120
            path = root / "tickets" / f"{ticket}.json"
            while not path.exists():
                assert time.monotonic() < deadline, "ticket never answered"
                server.step()
                time.sleep(0.02)
            return client.wait(ticket, timeout=5)

        svc1 = BatchService(1, cache_dir=root / "cache")
        server1 = SpoolServer(root, svc1, poll=0.02)
        client = SpoolClient(root)
        first = pump(server1, client, client.submit(spec(steps=10)))
        svc1.close()

        svc2 = BatchService(1, cache_dir=root / "cache")
        server2 = SpoolServer(root, svc2, poll=0.02)
        again = pump(server2, client, client.submit(spec(steps=10)))
        svc2.close()
        assert again.cached
        assert again.state_digest == first.state_digest
