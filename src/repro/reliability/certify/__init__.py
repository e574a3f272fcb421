"""Reproducibility certification: digest chains, manifests, replay.

The certification stack turns the engine's determinism contracts into
*checkable artifacts*:

* :mod:`~repro.reliability.certify.digest` — hash-chained per-interval
  trajectory digests (tampering anywhere invalidates the tail);
* :mod:`~repro.reliability.certify.manifest` — the self-checksummed
  provenance record (platform, numpy, backend + provider, precision,
  workers, chain head);
* :mod:`~repro.reliability.certify.record` — where a run directory
  keeps both alongside its snapshot-v2 checkpoints;
* :mod:`~repro.reliability.certify.verify` — ``repro certify``: replay
  a seedable checkpoint interval and compare (bitwise in a matching
  environment, PR-5 tolerance tiers cross-mode), plus the service
  cache auditor.

See ``docs/REPRODUCIBILITY.md`` for the format and the semantics.
"""

from repro.reliability.certify.digest import (
    CHAIN_SCHEMA,
    DigestChain,
    DigestChainError,
    DigestEntry,
    DigestRecorder,
    interval_digest,
    state_witness,
)
from repro.reliability.certify.manifest import (
    MANIFEST_SCHEMA,
    CertificationManifest,
    ManifestError,
)
from repro.reliability.certify.record import (
    CHAIN_FILENAME,
    MANIFEST_FILENAME,
    chain_path,
    manifest_path,
)
from repro.reliability.certify.verify import (
    CacheAuditReport,
    CertificationError,
    CertificationReport,
    audit_cache,
    certify_run,
)

__all__ = [
    "CHAIN_SCHEMA",
    "CHAIN_FILENAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_FILENAME",
    "DigestChain",
    "DigestChainError",
    "DigestEntry",
    "DigestRecorder",
    "interval_digest",
    "state_witness",
    "CertificationManifest",
    "ManifestError",
    "chain_path",
    "manifest_path",
    "CacheAuditReport",
    "CertificationError",
    "CertificationReport",
    "audit_cache",
    "certify_run",
]
