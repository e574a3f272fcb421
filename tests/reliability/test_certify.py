"""Certification stack: chain mechanics, manifests, replay, tampering.

The tamper tests are the satellite contract of ISSUE 9: flipping one
byte in a snapshot, truncating the digest chain, and editing a
manifest field must each fail certification with a *distinct*,
attributable error — ``CheckpointIntegrityError`` vs
``DigestChainError`` vs ``ManifestError`` — never a silent pass and
never a generic exception from deep inside numpy.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.md import RunConfig
from repro.reliability import (
    CheckpointIntegrityError,
    CheckpointManager,
    ResilientRunner,
)
from repro.reliability.certify import (
    CertificationError,
    CertificationManifest,
    DigestChain,
    DigestChainError,
    DigestRecorder,
    ManifestError,
    certify_run,
    chain_path,
    interval_digest,
    manifest_path,
)
from repro.service import JobSpec, build_simulation
from repro.suite import get_benchmark

STEPS = 20
EVERY = 5

#: A literal deck: the manifest seals only its hash, so a replay needs
#: the text back.  Its ``run`` count is the run's length.
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
run 20
"""


def _make_sim():
    return get_benchmark("lj").build(150)


def _certified_run(directory):
    """Produce a certified serial run directory (the CLI wiring)."""
    sim = _make_sim()
    manager = CheckpointManager(directory, every=EVERY)
    digest = DigestRecorder(every=EVERY, path=chain_path(directory))
    runner = ResilientRunner(sim, manager, digest=digest)
    runner.run(STEPS)
    digest.finalize(sim)
    spec = JobSpec(benchmark="lj", n_atoms=150, steps=STEPS,
                   checkpoint_every=EVERY)
    CertificationManifest.capture(
        sim, digest.chain, spec, digest_every=EVERY,
    ).save(manifest_path(directory))
    sim.close()
    return directory


def _certified_deck_run(directory):
    """A certified run built from ``DECK``, its length taken from the deck."""
    spec = JobSpec(deck=DECK, steps=None, checkpoint_every=EVERY)
    sim, steps = build_simulation(spec)
    manager = CheckpointManager(directory, every=EVERY)
    digest = DigestRecorder(every=EVERY, path=chain_path(directory))
    ResilientRunner(sim, manager, digest=digest).run(steps)
    digest.finalize(sim)
    CertificationManifest.capture(
        sim, digest.chain, spec, digest_every=EVERY,
    ).save(manifest_path(directory))
    sim.close()
    return directory


def _forge_last_digest(directory, **host):
    """Rebuild a self-consistent chain around a forged last digest and
    re-seal the manifest over it (with ``host`` facts overridden)."""
    chain = DigestChain.load(chain_path(directory))
    forged = DigestChain()
    for entry in chain.entries:
        digest = "f" * 64 if entry is chain.entries[-1] else entry.digest
        forged.append_record(entry.step, digest, entry.witness)
    forged.save(chain_path(directory))
    manifest = CertificationManifest.load(manifest_path(directory))
    manifest.chain_head = forged.head
    manifest.host.update(host)
    manifest.seal().save(manifest_path(directory))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return _certified_run(tmp_path_factory.mktemp("certified"))


@pytest.fixture(scope="module")
def deck_run_dir(tmp_path_factory):
    return _certified_deck_run(tmp_path_factory.mktemp("deck"))


@pytest.fixture()
def tampered(run_dir, tmp_path):
    """A fresh clone of the certified run dir, safe to corrupt."""
    clone = tmp_path / "clone"
    shutil.copytree(run_dir, clone)
    return clone


class TestDigestChain:
    def test_observe_appends_and_moves_head(self):
        sim = _make_sim()
        chain = DigestChain()
        genesis = chain.head
        sim.run(RunConfig(steps=2))
        chain.observe(sim)
        assert chain.head != genesis and len(chain) == 1
        sim.run(RunConfig(steps=1))
        head_one = chain.head
        chain.observe(sim)
        assert chain.head != head_one and len(chain) == 2
        chain.verify()
        sim.close()

    def test_same_step_observation_is_idempotent_verification(self):
        sim = _make_sim()
        chain = DigestChain()
        sim.run(RunConfig(steps=2))
        chain.observe(sim)
        chain.observe(sim)  # re-execution of a recorded step: verified
        assert len(chain) == 1
        sim.close()

    def test_diverged_reexecution_fails_loudly(self):
        sim = _make_sim()
        chain = DigestChain()
        sim.run(RunConfig(steps=2))
        entry = chain.observe(sim)
        forged = DigestChain()
        forged.entries = [
            type(entry)(
                index=0, step=entry.step, digest="0" * 64,
                chained=entry.chained, witness=entry.witness,
            )
        ]
        with pytest.raises(DigestChainError, match="diverged"):
            forged.observe(sim)
        sim.close()

    def test_editing_an_entry_invalidates_the_tail(self, tmp_path):
        sim = _make_sim()
        recorder = DigestRecorder(every=2, path=tmp_path / "chain.jsonl")
        sim.run(RunConfig(steps=6, digest=recorder))
        sim.close()
        lines = (tmp_path / "chain.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["witness"]["total_energy"] += 1e-9
        lines[1] = json.dumps(record, sort_keys=True)
        (tmp_path / "chain.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(DigestChainError, match="chained hash"):
            DigestChain.load(tmp_path / "chain.jsonl")

    def test_rewind_drops_tail_entries(self):
        sim = _make_sim()
        recorder = DigestRecorder(every=2)
        sim.run(RunConfig(steps=6, digest=recorder))
        sim.close()
        assert recorder.chain.steps() == [2, 4, 6]
        assert recorder.rewind_to(4) == 1
        assert recorder.chain.steps() == [2, 4]
        recorder.chain.verify()

    def test_save_load_roundtrip_preserves_head(self, tmp_path):
        sim = _make_sim()
        recorder = DigestRecorder(every=2, path=tmp_path / "c.jsonl")
        sim.run(RunConfig(steps=4, digest=recorder))
        sim.close()
        loaded = DigestChain.load(tmp_path / "c.jsonl")
        assert loaded.head == recorder.chain.head
        assert loaded.steps() == recorder.chain.steps()

    def test_wrong_schema_is_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"schema": "bogus/9"}) + "\n")
        with pytest.raises(DigestChainError, match="schema"):
            DigestChain.load(path)

    def test_digest_is_memory_layout_neutral(self):
        # The canonical byte stream is little-endian float64 C-order,
        # so the digest is a function of the numbers, not of strides
        # or memory order.
        sim = _make_sim()
        sim.run(RunConfig(steps=2))
        first = interval_digest(sim)
        sim.system.positions = np.asfortranarray(sim.system.positions)
        assert interval_digest(sim) == first
        sim.close()


class TestManifest:
    def test_roundtrip(self, run_dir):
        manifest = CertificationManifest.load(manifest_path(run_dir))
        assert manifest.benchmark == "lj"
        assert manifest.steps == STEPS
        assert manifest.chain_entries == len(
            DigestChain.load(chain_path(run_dir))
        )
        assert manifest.manifest_sha256 == manifest.checksum()

    def test_environment_summary_names_the_execution_mode(self, run_dir):
        manifest = CertificationManifest.load(manifest_path(run_dir))
        line = manifest.environment_summary()
        assert "backend=" in line and "precision=" in line
        assert "provider=" in line and "workers=" in line
        assert f"host_class={manifest.host['host_class']}" in line

    def test_version_1_layout_loads_and_certifies_bitwise(self, tampered):
        """A manifest written before the host block: four flat host
        fields, sealed over exactly those, still loads and replays."""
        path = manifest_path(tampered)
        data = json.loads(path.read_text())
        host = data.pop("host")
        data.update(
            schema="repro-certification/1",
            numpy_version=host["numpy"],
            python_version=host["python"],
            platform=host["platform"],
            machine=host["machine"],
        )
        data.pop("manifest_sha256")
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        data["manifest_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

        manifest = CertificationManifest.load(path)
        assert manifest.schema == "repro-certification/1"
        assert manifest.host == {
            key: host[key] for key in ("numpy", "python", "platform", "machine")
        }
        assert "host_class=-" in manifest.environment_summary()
        report = certify_run(tampered, seed=3)
        assert report.verdict == "bitwise"

        data["precision"] = "single"  # the old checksum still guards it
        path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="self-checksum"):
            CertificationManifest.load(path)


class TestCertifyRun:
    def test_fresh_serial_run_certifies_bitwise(self, run_dir):
        report = certify_run(run_dir, seed=3)
        assert report.verdict == "bitwise"
        assert report.tolerance is None
        assert report.checked_steps

    def test_interval_choice_is_seedable(self, run_dir):
        a = certify_run(run_dir, seed=12)
        b = certify_run(run_dir, seed=12)
        assert a.interval == b.interval

    def test_at_step_pins_the_interval(self, run_dir):
        manager = CheckpointManager(run_dir, every=EVERY)
        start = int(manager.checkpoints()[0].stem.rsplit("-", 1)[-1])
        report = certify_run(run_dir, at_step=start)
        assert report.interval[0] == start

    def test_cross_backend_replay_gets_cross_mode_verdict(self, run_dir):
        report = certify_run(run_dir, seed=3, backend="numpy_ref")
        assert report.verdict == "cross-mode-equivalent"
        assert report.tolerance == 1e-10

    def test_forged_digest_diagnostic_names_the_environment(self, tampered):
        # An attacker with full write access rebuilds a self-consistent
        # chain around a forged digest and re-seals the manifest; only
        # the replay itself can catch it — and the error must attribute
        # the mismatch by naming backend, provider, and precision.
        _forge_last_digest(tampered)
        with pytest.raises(CertificationError) as excinfo:
            certify_run(tampered, at_step=3 * EVERY)
        message = str(excinfo.value)
        assert "backend=" in message
        assert "provider=" in message
        assert "precision=" in message
        assert "host_class=" in message
        assert "recorded under" in message and "replayed under" in message
        assert "environments match the manifest" in message

    def test_mismatch_across_host_classes_names_the_fields(self, tampered):
        """A run recorded on a host whose numpy dispatches differently:
        the error blames the host class, not the run directory."""
        _forge_last_digest(
            tampered, numpy_simd_dispatch=["X86_V3"], host_class="0" * 16
        )
        with pytest.raises(CertificationError) as excinfo:
            certify_run(tampered, at_step=3 * EVERY)
        message = str(excinfo.value)
        assert "different host class: numpy_simd_dispatch differ" in message
        assert "environments match" not in message
        assert "host_class=0000000000000000" in message


class TestDeckRun:
    """A deck-built run directory seals the deck's hash, not its text."""

    def test_without_deck_text_the_error_names_the_sealed_hash(
        self, deck_run_dir
    ):
        sealed = hashlib.sha256(DECK.encode()).hexdigest()
        with pytest.raises(CertificationError, match=sealed):
            certify_run(deck_run_dir, seed=0)

    def test_deck_text_with_another_hash_is_refused(self, deck_run_dir):
        with pytest.raises(
            CertificationError, match="not the deck that produced the run"
        ):
            certify_run(
                deck_run_dir, seed=0, deck_text=DECK.replace("run 20", "run 10")
            )

    def test_with_its_deck_text_the_run_certifies_bitwise(self, deck_run_dir):
        manifest = CertificationManifest.load(manifest_path(deck_run_dir))
        # The built atom count and the deck's own run length.
        assert (manifest.n_atoms, manifest.steps) == (256, 20)
        report = certify_run(deck_run_dir, seed=3, deck_text=DECK)
        assert report.verdict == "bitwise"
        assert report.checked_steps


class TestTamperDetection:
    """The three ISSUE-9 tamper modes, each with its own error type."""

    def test_snapshot_byte_flip_fails_with_integrity_error(self, tampered):
        target = sorted(tampered.glob("ckpt-*.npz"))[0]
        start = int(target.stem.rsplit("-", 1)[-1])
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(CheckpointIntegrityError, match="CRC32"):
            certify_run(tampered, at_step=start)

    def test_chain_truncation_fails_with_chain_error(self, tampered):
        lines = chain_path(tampered).read_text().splitlines()
        chain_path(tampered).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DigestChainError, match="truncated"):
            certify_run(tampered, seed=0)

    def test_manifest_edit_fails_with_manifest_error(self, tampered):
        path = manifest_path(tampered)
        data = json.loads(path.read_text())
        data["precision"] = "single"
        path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="self-checksum"):
            certify_run(tampered, seed=0)

    def test_errors_are_mutually_distinct(self):
        # The attribution contract: three tamper modes, three types,
        # no common ancestor short of ValueError.
        kinds = {CheckpointIntegrityError, DigestChainError, ManifestError}
        assert len(kinds) == 3
        for a in kinds:
            for b in kinds - {a}:
                assert not issubclass(a, b)
