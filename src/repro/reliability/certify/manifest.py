"""Certification manifests: the provenance record of one run.

A digest chain says *what* trajectory a run produced; the
:class:`CertificationManifest` says *where and how* — platform, numpy
version, kernel backend and compiled provider, precision policy,
worker count — plus the chain head that seals the trajectory.  The
SCC17 Tersoff reproduction study (PAPERS.md) is the motivating
example: when a replay disagrees, the first question is always "same
compiler? same precision? same machine?", and the manifest is what
lets ``repro certify`` answer it in the error message instead of
leaving the user to archaeology.

The manifest is self-checksummed: ``manifest_sha256`` is a SHA-256
over the canonical JSON of every other field, so editing any field of
a stored ``manifest.json`` (say, relabeling a single-precision run as
double) is detected before any physics is replayed and raises
:class:`ManifestError` naming the file.
"""

from __future__ import annotations

import hashlib
import json
import platform as platform_module
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write
from repro.md.kernels import resolved_backend

__all__ = ["MANIFEST_SCHEMA", "CertificationManifest", "ManifestError"]

#: Manifest schema tag; bump on incompatible layout changes.
MANIFEST_SCHEMA = "repro-certification/1"


class ManifestError(ValueError):
    """A certification manifest is missing, malformed, or tampered."""


@dataclass
class CertificationManifest:
    """Everything needed to rebuild, replay, and attribute one run.

    The workload fields (``benchmark``/``deck_sha256``/``n_atoms``/
    ``seed``/``steps``) plus the execution fields (``workers``/
    ``precision``/``backend``/``backend_provider``) are sufficient to
    reconstruct the simulation for replay; the environment fields
    (``numpy_version``/``python_version``/``platform``/``machine``)
    exist so a cross-host digest mismatch is *attributable* — the
    certify error prints both sides.  ``chain_head``/``chain_entries``/
    ``final_state_digest`` seal the trajectory the manifest vouches for.
    """

    schema: str
    benchmark: str | None
    deck_sha256: str | None
    n_atoms: int
    seed: int | None
    steps: int
    workers: int
    precision: str
    backend: str
    backend_provider: str | None
    checkpoint_every: int
    digest_every: int
    prefix: str
    numpy_version: str
    python_version: str
    platform: str
    machine: str
    chain_head: str
    chain_entries: int
    final_step: int
    final_state_digest: str
    #: Free-form extras (e.g. recovery-event counts); covered by the
    #: checksum like everything else.
    extra: dict = field(default_factory=dict)
    #: Self-checksum over the canonical JSON of all other fields.
    manifest_sha256: str = ""

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """Every field except the checksum, JSON-ready."""
        data = asdict(self)
        data.pop("manifest_sha256")
        return data

    def checksum(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`payload`."""
        canonical = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def seal(self) -> "CertificationManifest":
        """Fill in ``manifest_sha256``; returns self for chaining."""
        self.manifest_sha256 = self.checksum()
        return self

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        simulation,
        chain,
        spec,
        *,
        digest_every: int = 0,
        prefix: str = "ckpt",
        extra: dict | None = None,
    ) -> "CertificationManifest":
        """Seal ``spec``, the ``JobSpec`` that ran, with its environment.

        A deck run records its text's hash, the atom count it built and,
        for ``steps=None``, the deck's ``run`` count; a fault plan goes
        to ``extra``.  Backend/provider/precision are the simulation's
        *live* values: an ``auto`` request is resolved by now, so the
        manifest names the kernel that produced the digests.  A run
        that degraded to serial passes ``replace(spec, workers=1)``.
        """
        from repro.service.spec import state_digest

        # The fields shared by name with the spec; live values win below.
        values = {
            name: value for name, value in asdict(spec).items()
            if name in cls.__dataclass_fields__
        }
        values["deck_sha256"] = None
        if spec.deck is not None:
            from repro.md.deck import parse_deck

            values.update(
                deck_sha256=hashlib.sha256(spec.deck.encode()).hexdigest(),
                n_atoms=int(simulation.system.n_atoms),
                steps=spec.steps or parse_deck(spec.deck).run_steps,
            )
        values.update(execution_facts(simulation, spec.workers))
        plan = {"fault_plan": spec.fault_plan} if spec.fault_plan else {}
        manifest = cls(
            schema=MANIFEST_SCHEMA,
            **values,
            digest_every=int(digest_every),
            prefix=str(prefix),
            chain_head=chain.head,
            chain_entries=len(chain),
            final_step=int(simulation.step_number),
            final_state_digest=state_digest(simulation.system),
            extra={**(extra or {}), **plan},
        )
        return manifest.seal()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the sealed manifest atomically as pretty JSON."""
        if not self.manifest_sha256:
            self.seal()
        return atomic_write(
            path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "CertificationManifest":
        """Read a manifest and verify its self-checksum."""
        path = Path(path)
        if not path.exists():
            raise ManifestError(f"no certification manifest at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {path} is not JSON: {exc}") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ManifestError(
                f"manifest {path} carries unknown fields {sorted(unknown)}"
            )
        try:
            manifest = cls(**data)
        except TypeError as exc:
            raise ManifestError(f"manifest {path} is incomplete: {exc}") from exc
        if manifest.schema != MANIFEST_SCHEMA:
            raise ManifestError(
                f"manifest {path} has schema {manifest.schema!r}, "
                f"expected {MANIFEST_SCHEMA!r}"
            )
        expected = manifest.checksum()
        if manifest.manifest_sha256 != expected:
            raise ManifestError(
                f"manifest {path} fails its self-checksum "
                f"(recorded {manifest.manifest_sha256[:16]}…, "
                f"recomputed {expected[:16]}…): a field was edited "
                "after sealing"
            )
        return manifest

    # ------------------------------------------------------------------
    def environment_summary(self) -> str:
        """One line naming backend/provider/precision/workers/platform."""
        return environment_line(vars(self))


def execution_facts(simulation, workers: int) -> dict:
    """The manifest fields naming what runs ``simulation``, and where."""
    backend, provider = resolved_backend(simulation.backend)
    return {
        "workers": int(workers),
        "precision": simulation.precision.mode.value,
        "backend": backend,
        "backend_provider": provider,
        "numpy_version": np.__version__,
        "python_version": platform_module.python_version(),
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
    }


def environment_line(facts) -> str:
    """The one-line environment of a recorded or a replayed run."""
    return (
        f"backend={facts['backend']} "
        f"provider={facts['backend_provider'] or '-'} "
        f"precision={facts['precision']} workers={facts['workers']} "
        f"numpy={facts['numpy_version']} platform={facts['platform']}"
    )
