"""Run-directory layout: where a certified run keeps its digests and manifest.

A *certified run directory* is an ordinary checkpoint directory (the
``{prefix}-{step:09d}.npz`` files a
:class:`~repro.reliability.CheckpointManager` retains) plus two
artifacts:

``digests.jsonl``
    The hash-chained trajectory digest chain
    (:class:`~repro.reliability.certify.digest.DigestChain`), persisted
    after every new link by a
    ``DigestRecorder(every=..., path=chain_path(run_dir))``.
``manifest.json``
    The sealed :class:`~repro.reliability.certify.manifest.
    CertificationManifest`, written once at the end of the run from
    the ``JobSpec`` that ran (``CertificationManifest.capture(sim,
    chain, spec, digest_every=...).save(manifest_path(run_dir))``).

``repro checkpoint`` is the producer; ``repro certify``
(:mod:`repro.reliability.certify.verify`) is the consumer.  The digest
recorder plugs into ``RunConfig(digest=...)`` exactly like a checkpoint
manager plugs into ``RunConfig(checkpoint=...)``, and into
:class:`~repro.reliability.ResilientRunner` (``digest=``) so recovery
re-execution verifies rather than corrupts the chain.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "CHAIN_FILENAME",
    "MANIFEST_FILENAME",
    "chain_path",
    "manifest_path",
]

#: Digest-chain file name inside a certified run directory.
CHAIN_FILENAME = "digests.jsonl"
#: Manifest file name inside a certified run directory.
MANIFEST_FILENAME = "manifest.json"


def chain_path(run_dir: str | Path) -> Path:
    """Where a run directory's digest chain lives."""
    return Path(run_dir) / CHAIN_FILENAME


def manifest_path(run_dir: str | Path) -> Path:
    """Where a run directory's certification manifest lives."""
    return Path(run_dir) / MANIFEST_FILENAME
