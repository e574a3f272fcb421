"""Service-layer certification: digest heads through spool, pool, cache.

The centerpiece is the PR-8 wire-format regression lock: a deck job
with ``steps=None`` submitted through the *full* transport (spool file
→ server claim → worker pool → result cache) must produce the exact
digest-chain head a direct in-process ``execute_job`` of the same spec
produces.  If any hop re-serializes the spec lossily (the PR-8 bug
resurrected ``steps=None`` as the field default 100), the worker runs
different physics, the chains diverge at entry one, and the heads —
and this test — fail.

``audit_cache`` is exercised against the same spool's cache directory:
the stored records must verify (chain linkage, head, self-address) and
a deliberately corrupted record must surface as a finding, not an
exception.
"""

import json
import threading

import pytest

from repro.reliability.certify import DigestChain, audit_cache
from repro.service import BatchService, JobSpec, SpoolClient, SpoolServer
from repro.service.runner import execute_job
from repro.service.spec import JobResult

DECK = """\
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0 2.5
velocity all create 1.44 87287
timestep 0.005
run 10
"""


@pytest.fixture(scope="module")
def spool(tmp_path_factory):
    spool_dir = tmp_path_factory.mktemp("spool")
    service = BatchService(1, cache_dir=spool_dir / "cache")
    server = SpoolServer(spool_dir, service, poll=0.02)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"max_seconds": 120}, daemon=True
    )
    thread.start()
    yield spool_dir
    server.request_stop()
    thread.join(timeout=30)
    service.close()


class TestDeckStepsNoneRegression:
    """Lock for the PR-8 fix: steps=None must survive every hop."""

    def test_spooled_deck_job_matches_direct_head(self, spool):
        spec = JobSpec(deck=DECK, steps=None, workers=1)
        spooled = SpoolClient(spool).run(spec, timeout=120)
        direct = execute_job(spec)
        assert spooled.steps == 10  # the deck's own run count, not 100
        assert direct.steps == 10
        assert spooled.digest_head == direct.digest_head
        assert spooled.state_digest == direct.state_digest
        assert len(spooled.digest_chain) == len(direct.digest_chain)

    def test_cached_record_certifies_under_its_address(self, spool):
        report = audit_cache(spool / "cache")
        assert report.ok, report.findings
        assert report.scanned >= 1
        assert report.verified == report.scanned

    def test_cache_replay_reproduces_heads(self, spool):
        report = audit_cache(spool / "cache", replay=True, limit=1, seed=0)
        assert report.ok, report.findings
        assert report.replayed == 1


class TestResultWireFormat:
    def test_digest_fields_survive_json_roundtrip(self):
        result = execute_job(
            JobSpec(benchmark="lj", n_atoms=150, steps=8, seed=5)
        )
        wired = JobResult.from_json(json.loads(json.dumps(result.to_json())))
        assert wired.digest_head == result.digest_head
        assert wired.digest_every == result.digest_every
        assert wired.digest_chain == result.digest_chain
        assert wired.spec_json == result.spec_json
        chain = DigestChain.from_records(wired.digest_chain)
        assert chain.head == wired.digest_head

    def test_legacy_records_without_digests_still_parse(self):
        data = {
            "key": "k" * 64, "benchmark": "lj", "n_atoms": 256, "steps": 5,
            "seed": 1, "precision": "double", "backend": "numpy_fast",
            "backend_provider": None, "total_energy": -1.0,
            "potential_energy": -2.0, "temperature": 1.4,
            "state_digest": "d" * 64, "wall_seconds": 0.1, "ts_per_s": 50.0,
        }
        legacy = JobResult.from_json(data)
        assert legacy.digest_head is None
        assert legacy.digest_chain == []


class TestAuditFindings:
    def test_corrupted_chain_record_is_a_finding(self, tmp_path):
        result = execute_job(
            JobSpec(benchmark="lj", n_atoms=150, steps=6, seed=7)
        )
        path = tmp_path / f"{result.key}.json"
        data = result.to_json()
        data["digest_chain"][0]["digest"] = "0" * 64
        path.write_text(json.dumps(data))
        report = audit_cache(tmp_path)
        assert not report.ok
        assert any("chain" in problem for _, problem in report.findings)

    def test_record_under_wrong_address_is_a_finding(self, tmp_path):
        result = execute_job(
            JobSpec(benchmark="lj", n_atoms=150, steps=6, seed=8)
        )
        (tmp_path / f"{'a' * 64}.json").write_text(
            json.dumps(result.to_json())
        )
        report = audit_cache(tmp_path)
        assert not report.ok
        assert any("stored under" in problem for _, problem in report.findings)

    def test_forged_head_is_a_finding(self, tmp_path):
        result = execute_job(
            JobSpec(benchmark="lj", n_atoms=150, steps=6, seed=9)
        )
        data = result.to_json()
        data["digest_head"] = "e" * 64
        (tmp_path / f"{result.key}.json").write_text(json.dumps(data))
        report = audit_cache(tmp_path)
        assert not report.ok
        assert any("digest_head" in problem for _, problem in report.findings)
