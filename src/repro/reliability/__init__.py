"""Fault tolerance: checkpoint/restart + supervised crash recovery.

Three layers (see ``docs/RELIABILITY.md``):

* :mod:`repro.md.restart` (format v2) serializes the *complete*
  dynamical state — this package's foundation, kept in ``repro.md``
  because serial restarts need it too;
* :class:`CheckpointManager` adds the periodic/atomic/retained write
  policy and corrupted-file-skipping recovery;
* :class:`ResilientRunner` supervises a run: detect worker failure,
  respawn from the last checkpoint with bounded backoff, degrade to
  the serial executor when respawns are exhausted.

:class:`FaultPlan` is the deterministic crash injector driving the
test harness (``JobSpec.fault_plan`` / ``--fault-plan``); the parallel
engine alone takes its faults, for the ``step``, ``rebuild`` and
``checkpoint`` phases alike.

On top of those sits :mod:`repro.reliability.certify` — hash-chained
trajectory digests, certification manifests, and ``repro certify``
replay verification (``docs/REPRODUCIBILITY.md``).
"""

from repro.reliability.certify import (
    CertificationManifest,
    DigestChain,
    DigestChainError,
    DigestRecorder,
    ManifestError,
    audit_cache,
    certify_run,
)
from repro.reliability.checkpoint import (
    CheckpointIntegrityError,
    CheckpointManager,
)
from repro.reliability.faultplan import FaultPlan, FaultSpec
from repro.reliability.recovery import RecoveryEvent, ResilientRunner

__all__ = [
    "CertificationManifest",
    "CheckpointIntegrityError",
    "CheckpointManager",
    "DigestChain",
    "DigestChainError",
    "DigestRecorder",
    "FaultPlan",
    "FaultSpec",
    "ManifestError",
    "RecoveryEvent",
    "ResilientRunner",
    "audit_cache",
    "certify_run",
]
