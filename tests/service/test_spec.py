"""Content-address stability: the contract the whole cache rides on.

The key must move when any result-determining field moves (deck
contents, steps, precision, seed, backend/provider) and must hold
still across dict ordering, construction order, and — the one that
catches ``id()``/``hash()`` leaks — separate interpreter processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import JobSpec

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

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


def base_spec(**overrides):
    fields = dict(benchmark="lj", n_atoms=500, steps=100, seed=1)
    fields.update(overrides)
    return JobSpec(**fields)


class TestKeySensitivity:
    def test_steps_change_key(self):
        assert base_spec().cache_key() != base_spec(steps=101).cache_key()

    def test_seed_changes_key(self):
        assert base_spec().cache_key() != base_spec(seed=2).cache_key()

    def test_precision_changes_key(self):
        assert (
            base_spec().cache_key()
            != base_spec(precision="single").cache_key()
        )

    def test_atom_count_changes_key(self):
        assert base_spec().cache_key() != base_spec(n_atoms=864).cache_key()

    def test_benchmark_changes_key(self):
        assert (
            base_spec().cache_key()
            != base_spec(benchmark="chain").cache_key()
        )

    def test_backend_changes_key(self):
        # numpy_ref and numpy_fast are both always available, so the
        # resolved names (and hence the keys) must differ.
        a = base_spec(backend="numpy_fast").cache_key()
        b = base_spec(backend="numpy_ref").cache_key()
        assert a != b

    def test_deck_contents_change_key(self):
        one = JobSpec(deck=DECK)
        other = JobSpec(deck=DECK.replace("run 10", "run 20"))
        assert one.cache_key() != other.cache_key()

    def test_deck_key_hashes_content_not_identity(self):
        assert JobSpec(deck=DECK).cache_key() == JobSpec(deck=str(DECK)).cache_key()


class TestKeyNeutrality:
    """Execution strategy must NOT move the address."""

    def test_workers_do_not_change_key(self):
        assert base_spec().cache_key() == base_spec(workers=4).cache_key()

    def test_fault_plan_does_not_change_key(self):
        assert (
            base_spec().cache_key()
            == base_spec(
                workers=2, fault_plan="kill:1:7", checkpoint_every=5
            ).cache_key()
        )

    def test_tag_does_not_change_key(self):
        assert base_spec().cache_key() == base_spec(tag="sweep-A").cache_key()

    def test_precision_spelling_is_canonicalized(self):
        assert (
            base_spec(precision="double").cache_key()
            == base_spec(precision="DOUBLE").cache_key()
        )

    def test_auto_backend_lands_on_resolved_address(self):
        from repro.md.kernels import resolve_auto_backend

        explicit = base_spec(backend=resolve_auto_backend()).cache_key()
        assert base_spec(backend="auto").cache_key() == explicit


class TestKeyStability:
    def test_dict_ordering_is_irrelevant(self):
        data = {"steps": 100, "benchmark": "lj", "seed": 1, "n_atoms": 500}
        reordered = dict(reversed(list(data.items())))
        assert (
            JobSpec.from_json(data).cache_key()
            == JobSpec.from_json(reordered).cache_key()
        )

    def test_key_is_stable_across_processes(self):
        spec = base_spec(backend="numpy_fast")
        program = (
            "from repro.service import JobSpec; import sys, json; "
            "print(JobSpec.from_json(json.loads(sys.argv[1])).cache_key())"
        )
        out = subprocess.run(
            [sys.executable, "-c", program, json.dumps(spec.to_json())],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == spec.cache_key()

    def test_compiled_address_is_the_recorded_one(self):
        """Caches written before the native backend had a single
        provider must still resolve: ``backend_provider`` stays ``cc``
        in the payload, so this address is the one recorded then."""
        from repro.md.kernels.compiled import compiled_available

        if not compiled_available():
            pytest.skip("no compiled provider on this machine")
        spec = JobSpec(
            benchmark="lj", n_atoms=150, steps=8, seed=9, backend="compiled"
        )
        assert spec.canonical_payload()["backend_provider"] == "cc"
        assert spec.cache_key() == (
            "40aba4b22c40058ce6d7db0079164f03cf4124ae58db938a62a044de7ec22d73"
        )

    def test_effective_seed_resolves_builder_default(self):
        # lj's builder default is 12345; an explicit seed=12345 must
        # land on the same address as leaving the seed unset.
        assert (
            base_spec(seed=None).cache_key()
            == base_spec(seed=12345).cache_key()
        )


class TestValidation:
    def test_requires_exactly_one_workload(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(benchmark="lj", deck=DECK)
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec()

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError):
            JobSpec(benchmark="gromacs")

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            JobSpec(benchmark="lj", precision="quad")

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="steps"):
            JobSpec(benchmark="lj", steps=0)

    def test_steps_none_only_for_decks(self):
        with pytest.raises(ValueError, match="deck"):
            JobSpec(benchmark="lj", steps=None)
        assert JobSpec(deck=DECK, steps=None).steps is None

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_json({"benchmark": "lj", "gpu_count": 8})

    def test_wire_roundtrip(self):
        spec = base_spec(workers=2, tag="t", backend="numpy_fast")
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_wire_roundtrip_preserves_deck_steps_none(self):
        # steps=None has a non-None default (100): the wire form must
        # carry it explicitly, or the worker runs 100 steps and the
        # wrong result is cached under the steps=None address.
        spec = JobSpec(deck=DECK, steps=None)
        wired = JobSpec.from_json(spec.to_json())
        assert wired.steps is None
        assert wired == spec
        assert wired.cache_key() == spec.cache_key()
