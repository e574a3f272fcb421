"""Replay verification: ``repro certify`` and the cache auditor.

:func:`certify_run` is the consumer of a certified run directory
(:mod:`repro.reliability.certify.record`): it picks a checkpoint
interval — random but seedable, or pinned with ``at_step=`` — restores
the interval's starting snapshot, re-executes the steps, and compares
what the replay produces against what the digest chain sealed.

Two verdicts, because the engine has two determinism regimes
(``docs/REPRODUCIBILITY.md``):

``"bitwise"``
    The replay environment matches the manifest — same kernel backend,
    same compiled provider, same precision mode, same executor family
    (serial vs parallel) — so every interval digest must match **bit
    for bit**.  Any mismatch raises :class:`CertificationError` with a
    manifest-attributed diagnostic naming both environments.
``"cross-mode-equivalent"``
    The environments differ (replaying a compiled-backend run on a
    machine that only has numpy, or a double run in mixed precision),
    so bitwise equality is physically off the table; the replay is
    instead held to the PR-5 per-precision parity tiers
    (:data:`repro.md.precision.PARITY_TOLERANCES`) on the chain's
    witness observables and on the end-of-interval state.

:func:`audit_cache` applies the same machinery to a service result
cache (PR 8): every stored :class:`~repro.service.spec.JobResult`
carries its digest-chain records, so the auditor can re-verify chain
linkage, check the result sits under its own content address, and —
with ``replay=True`` — re-execute entries and demand the same head.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.md.precision import PARITY_TOLERANCES
from repro.observability.telemetry.provenance import (
    host_differences,
    host_facts,
)
from repro.reliability.certify.digest import (
    DigestChain,
    DigestChainError,
    interval_digest,
    state_witness,
)
from repro.reliability.certify.manifest import (
    CertificationManifest,
    environment_line,
    execution_facts,
)
from repro.reliability.certify.record import chain_path, manifest_path

__all__ = [
    "CertificationError",
    "CertificationReport",
    "CacheAuditReport",
    "certify_run",
    "audit_cache",
]

#: Coarseness rank for picking the governing cross-mode tolerance tier.
_PRECISION_RANK = {"double": 0, "mixed": 1, "single": 2}


class CertificationError(ValueError):
    """A replay failed certification (with an attributable diagnostic)."""


@dataclass
class CertificationReport:
    """What one successful :func:`certify_run` established."""

    run_dir: str
    #: ``"bitwise"`` or ``"cross-mode-equivalent"``.
    verdict: str
    #: ``(start_step, end_step)`` of the replayed interval.
    interval: tuple[int, int]
    #: Chain steps whose digests/witnesses were checked in the replay.
    checked_steps: list[int]
    #: Governing tolerance (None for bitwise verdicts).
    tolerance: float | None
    #: The sealed chain head the manifest vouches for.
    chain_head: str
    #: Total entries in the verified chain.
    chain_entries: int
    #: The manifest's environment line (what produced the run).
    recorded_environment: str
    #: The replay's environment line (what verified it).
    replay_environment: str
    #: Human-readable check log, one line per verification performed.
    checks: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """One line suitable for CLI output."""
        lo, hi = self.interval
        tol = "bit-for-bit" if self.tolerance is None else f"tol {self.tolerance:.0e}"
        return (
            f"certified {self.run_dir}: verdict={self.verdict} "
            f"interval=[{lo}, {hi}] ({len(self.checked_steps)} digest "
            f"point(s), {tol}); chain head {self.chain_head[:16]}… "
            f"({self.chain_entries} entries)"
        )


def _replay_spec(manifest: CertificationManifest, deck_text: str | None):
    """The ``JobSpec`` that ran, rebuilt from its manifest.

    A deck run needs its text back: the manifest only seals its hash.
    """
    from repro.service import JobSpec

    if manifest.benchmark is not None:
        deck_text = None
    elif deck_text is None:
        raise CertificationError(
            "this run was produced from a literal deck; pass the deck "
            "text (repro certify --deck FILE) so the simulation can "
            f"be rebuilt — the manifest only seals its hash "
            f"{manifest.deck_sha256!r}"
        )
    else:
        have = hashlib.sha256(deck_text.encode()).hexdigest()
        if have != manifest.deck_sha256:
            raise CertificationError(
                f"supplied deck text hashes to {have[:16]}… but the "
                f"manifest seals {str(manifest.deck_sha256)[:16]}…: this "
                "is not the deck that produced the run"
            )
    recorded = {
        name: value for name, value in vars(manifest).items()
        if name in JobSpec.__dataclass_fields__
    }
    return JobSpec(deck=deck_text, **recorded)


@dataclass(frozen=True)
class _Judge:
    """The one comparison a replay is held to, chosen once per replay.

    ``tolerance=None`` is the bitwise verdict: each digest, and the end
    snapshot's positions and velocities, equal bit for bit.  A parity
    tier is the cross-mode verdict: the chain's witnesses and the end
    positions within it.  Each check returns its report line or raises
    :meth:`mismatch`.
    """

    run_dir: Path
    recorded_env: str
    replay_env: str
    tolerance: float | None
    #: The host-class fields the recording and the replaying host
    #: disagree on (empty: the same host class, as far as both know).
    host_diff: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "bitwise" if self.tolerance is None else "cross-mode-equivalent"

    def mismatch(self, what: str, why: str, tail: str = "") -> CertificationError:
        """The error for one failed check, attributed to both sides."""
        return CertificationError(
            f"{what} of {self.run_dir}{why}.\n"
            f"  recorded under: {self.recorded_env}\n"
            f"  replayed under: {self.replay_env}{tail}"
        )

    def step(self, entry, sim) -> str:
        """Hold the replay to the chain entry sealed at its step."""
        if self.tolerance is None:
            replayed = interval_digest(sim)
            if replayed != entry.digest:
                raise self.mismatch(
                    f"digest mismatch at step {entry.step}",
                    ": the replay does not reproduce the sealed chain bit "
                    "for bit",
                    f"\n  recorded digest {entry.digest[:16]}…, "
                    f"replayed {replayed[:16]}…\n" + self._cause(),
                )
            return f"step {entry.step}: digest bit-for-bit OK"
        observed = state_witness(sim)
        for name, recorded in entry.witness.items():
            if name not in observed:
                continue
            scale = max(1.0, abs(float(recorded)))
            delta = abs(float(observed[name]) - float(recorded)) / scale
            if delta > self.tolerance:
                raise self.mismatch(
                    f"cross-mode witness '{name}' diverged at step "
                    f"{entry.step}",
                    f": |Δ|/scale = {delta:.3e} > tol {self.tolerance:.0e}",
                )
        return f"step {entry.step}: witnesses within {self.tolerance:.0e}"

    def _cause(self) -> str:
        """Why a bitwise replay can miss: the host, or the run itself."""
        if self.host_diff:
            return (
                "The run was recorded on a different host class: "
                f"{', '.join(self.host_diff)} differ.  numpy's SIMD "
                "dispatch, libm and the compiler each fix the last bit "
                "of a transcendental, so this mismatch says nothing about "
                "the run directory; replay it on its own host class."
            )
        return (
            "The environments match the manifest, so this is not a "
            "backend/provider/precision or host-class difference: the run "
            "directory's snapshots or chain are corrupt, or the kernel "
            "has drifted from its certified behavior."
        )

    def state(self, step: int, reference, mine) -> str:
        """Hold the replay to the interval's retained ending snapshot."""
        if self.tolerance is None:
            if not (
                np.array_equal(reference.positions, mine.positions)
                and np.array_equal(reference.velocities, mine.velocities)
            ):
                raise self.mismatch(
                    f"end-of-interval state at step {step}",
                    " does not match the retained snapshot bit for bit",
                    "\n" + self._cause(),
                )
            return f"step {step}: snapshot state bit-for-bit OK"
        # In float64: a single-precision pair must not round its delta.
        ref_x = np.asarray(reference.positions, dtype=np.float64)
        delta = float(np.abs(ref_x - mine.positions).max())
        if delta > self.tolerance:
            raise self.mismatch(
                f"end-of-interval positions at step {step}",
                f" diverge by |dx|max = {delta:.3e} > tol "
                f"{self.tolerance:.0e}",
            )
        return f"step {step}: snapshot |dx|max within {self.tolerance:.0e}"


def certify_run(
    run_dir: str | Path,
    *,
    seed: int | None = None,
    at_step: int | None = None,
    backend: str | None = None,
    precision: str | None = None,
    workers: int | None = None,
    deck_text: str | None = None,
    logger=None,
) -> CertificationReport:
    """Verify one certified run directory by interval replay.

    Raises
    ------
    ManifestError
        ``manifest.json`` is missing, malformed, or edited (the
        self-checksum catches any post-seal field change).
    DigestChainError
        ``digests.jsonl`` is unreadable, internally inconsistent, or
        does not end at the head the manifest seals (truncation).
    CheckpointIntegrityError
        A snapshot needed for the replay fails its CRC/size record.
    CertificationError
        The replay itself disagrees with the chain — with a diagnostic
        attributing the mismatch to the recorded vs replay environment.
    """
    from repro.md import RunConfig
    from repro.md.restart import load_snapshot, restore_simulation
    from repro.reliability.checkpoint import CheckpointManager
    from repro.service import build_simulation

    run_dir = Path(run_dir)
    log = logger if logger is not None else (lambda _line: None)
    manifest = CertificationManifest.load(manifest_path(run_dir))
    chain = DigestChain.load(chain_path(run_dir))
    if len(chain) != manifest.chain_entries or chain.head != manifest.chain_head:
        raise DigestChainError(
            f"digest chain of {run_dir} ends at entry {len(chain)} with "
            f"head {chain.head[:16]}…, but the manifest seals "
            f"{manifest.chain_entries} entries with head "
            f"{manifest.chain_head[:16]}…: the chain was truncated or "
            "rewritten after the run finished"
        )

    manager = CheckpointManager(run_dir, prefix=manifest.prefix)
    snapshots = {
        int(path.stem.rsplit("-", 1)[-1]): path
        for path in manager.checkpoints()
    }
    if not snapshots:
        raise CertificationError(
            f"no retained '{manifest.prefix}-*.npz' checkpoints under "
            f"{run_dir}: nothing to replay from"
        )
    chain_steps = set(chain.steps())
    ordered = sorted(snapshots)
    # Candidate intervals: start at a retained snapshot, end at the next
    # retained snapshot (or the run's final step), and contain at least
    # one chain entry to check the replay against.
    candidates = [
        (start, end)
        for start, end in zip(ordered, ordered[1:] + [manifest.final_step])
        if end > start and any(start < s <= end for s in chain_steps)
    ]
    if not candidates:
        raise CertificationError(
            f"no replayable interval in {run_dir}: retained checkpoints "
            f"at steps {ordered} share no digest entries "
            f"(chain records steps {sorted(chain_steps)})"
        )
    if at_step is not None:
        matches = [c for c in candidates if c[0] == int(at_step)]
        if not matches:
            raise CertificationError(
                f"no replayable interval starts at step {at_step}; "
                f"candidates start at {[c[0] for c in candidates]}"
            )
        start, end = matches[0]
    else:
        start, end = random.Random(seed).choice(candidates)
    log(f"replaying interval [{start}, {end}] of {run_dir} "
        f"({len(candidates)} candidate interval(s))")

    # Integrity-check the snapshots the verdict will lean on.
    manager.verify_integrity(snapshots[start])
    if end in snapshots:
        manager.verify_integrity(snapshots[end])

    overrides = {"backend": backend, "precision": precision, "workers": workers}
    spec = replace(
        _replay_spec(manifest, deck_text),
        **{name: value for name, value in overrides.items() if value is not None},
    )
    sim, _steps = build_simulation(spec)
    try:
        mode = sim.precision.mode.value
        restore_simulation(
            sim, snapshots[start], cast=mode if mode != manifest.precision else None
        )
        live = {**execution_facts(sim, spec.workers), "host": host_facts()}
        # Bitwise needs the manifest's backend, provider, precision and
        # executor family: serial and parallel sum in different orders,
        # parallel worker counts are bitwise by contract.  A run that
        # degraded to the serial executor mixes both families in one
        # chain, so it certifies cross-mode (docs/REPRODUCIBILITY.md §5).
        bitwise = not manifest.extra.get("degraded") and all(
            live[name] == getattr(manifest, name)
            for name in ("backend", "backend_provider", "precision")
        ) and (spec.workers > 1) == (manifest.workers > 1)
        # Otherwise the coarser of the two precision modes' tiers governs.
        tier = max(manifest.precision, mode, key=_PRECISION_RANK.get)
        judge = _Judge(
            run_dir, manifest.environment_summary(), environment_line(live),
            None if bitwise else PARITY_TOLERANCES[tier],
            tuple(host_differences(manifest.host, live["host"])),
        )
        checked: list[int] = []
        checks: list[str] = []
        for entry in chain.entries:
            if start < entry.step <= end:
                sim.run(RunConfig(steps=entry.step - sim.step_number))
                checks.append(judge.step(entry, sim))
                checked.append(entry.step)
        # End-of-interval state check against the ending snapshot (when
        # one is retained).
        if end in snapshots:
            reference = load_snapshot(snapshots[end]).system
            checks.append(judge.state(end, reference, sim.system))
    finally:
        sim.close()

    report = CertificationReport(
        run_dir=str(run_dir),
        verdict=judge.verdict,
        interval=(start, end),
        checked_steps=checked,
        tolerance=judge.tolerance,
        chain_head=chain.head,
        chain_entries=len(chain),
        recorded_environment=judge.recorded_env,
        replay_environment=judge.replay_env,
        checks=checks,
    )
    log(report.summary())
    return report


# ----------------------------------------------------------------------
# Cache auditing (repro certify --cache)
# ----------------------------------------------------------------------


@dataclass
class CacheAuditReport:
    """What :func:`audit_cache` established about one result cache."""

    cache_dir: str
    #: Entries examined.
    scanned: int = 0
    #: Entries whose chain linkage + head + address all verified.
    verified: int = 0
    #: Entries additionally re-executed and head-compared.
    replayed: int = 0
    #: key -> reason for entries that could not be fully checked
    #: (legacy records without chains, foreign-environment addresses).
    skipped: dict[str, str] = field(default_factory=dict)
    #: ``(key, problem)`` pairs; an empty list means the audit passed.
    findings: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing failed verification."""
        return not self.findings

    def summary(self) -> str:
        """One line suitable for CLI output."""
        state = "OK" if self.ok else f"{len(self.findings)} FINDING(S)"
        return (
            f"cache audit of {self.cache_dir}: {self.scanned} scanned, "
            f"{self.verified} verified, {self.replayed} replayed, "
            f"{len(self.skipped)} skipped — {state}"
        )


def audit_cache(
    cache_dir: str | Path,
    *,
    replay: bool = False,
    limit: int | None = None,
    seed: int | None = None,
    logger=None,
) -> CacheAuditReport:
    """Audit a service result cache's stored records.

    For every ``<key>.json`` record: rebuild the digest chain from the
    stored records (verifying every chained hash), check it ends at the
    stored ``digest_head``, check the record sits under its own content
    address, and — when the stored spec is available and the local
    environment resolves to the same backend/provider — recompute the
    address from the spec.  ``replay=True`` additionally re-executes up
    to ``limit`` replayable entries (seedable sample) and demands the
    same chain head, the end-to-end guard over the content-address
    path.  Problems become report *findings*; nothing raises, so one
    bad record cannot mask another.
    """
    from repro.service.spec import JobResult, JobSpec

    cache_dir = Path(cache_dir)
    log = logger if logger is not None else (lambda _line: None)
    report = CacheAuditReport(cache_dir=str(cache_dir))
    # ``(key, result, spec)`` of every verified entry with a stored spec.
    replayable: list[tuple[str, JobResult, JobSpec]] = []
    for path in sorted(cache_dir.glob("*.json")):
        key = path.stem
        report.scanned += 1
        try:
            result = JobResult.from_json(json.loads(path.read_text()))
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            report.findings.append((key, f"unreadable record: {exc!r}"))
            continue
        if result.key != key:
            report.findings.append(
                (key, f"record claims key {result.key[:16]}… but is "
                      f"stored under {key[:16]}…")
            )
            continue
        if not result.digest_chain:
            report.skipped[key] = "no digest chain (pre-certification record)"
            continue
        try:
            chain = DigestChain.from_records(result.digest_chain)
        except DigestChainError as exc:
            report.findings.append((key, f"broken digest chain: {exc}"))
            continue
        if chain.head != result.digest_head:
            report.findings.append(
                (key, f"chain head {chain.head[:16]}… does not match the "
                      f"stored digest_head {str(result.digest_head)[:16]}…")
            )
            continue
        if result.spec_json is not None:
            try:
                spec = JobSpec.from_json(result.spec_json)
            except (TypeError, ValueError, KeyError) as exc:
                report.findings.append((key, f"unreadable stored spec: {exc!r}"))
                continue
            payload = spec.canonical_payload()
            if (
                payload["backend"] != result.backend
                or payload["backend_provider"] != result.backend_provider
            ):
                # Produced under a different resolved environment (e.g.
                # compiled there, fallen back to numpy_fast here): the
                # address cannot be recomputed locally, and a replay
                # would not be bitwise — verified as far as the chain goes.
                report.skipped[key] = (
                    f"foreign environment ({result.backend}/"
                    f"{result.backend_provider} vs local "
                    f"{payload['backend']}/{payload['backend_provider']})"
                )
                report.verified += 1
                continue
            if spec.cache_key() != key:
                report.findings.append(
                    (key, "stored spec recomputes to address "
                          f"{spec.cache_key()[:16]}…, not {key[:16]}…")
                )
                continue
            replayable.append((key, result, spec))
        report.verified += 1
        log(f"{key[:16]}…: chain OK ({len(chain)} entries)")

    if replay:
        random.Random(seed).shuffle(replayable)
        for key, stored, spec in replayable[:limit]:
            _replay_entry(key, stored, spec, report, log)
    log(report.summary())
    return report


def _replay_entry(key: str, stored, spec, report, log) -> None:
    """Re-execute one cached job and demand the same chain head."""
    from repro.service.runner import execute_job

    # Replay fault-free: recovery makes fault plans result-neutral,
    # so the reference replay must reproduce the same head anyway.
    fresh = execute_job(replace(spec, fault_plan=None))
    report.replayed += 1
    if fresh.digest_head != stored.digest_head:
        report.findings.append(
            (key, "replay produced chain head "
                  f"{str(fresh.digest_head)[:16]}… but the cache stores "
                  f"{str(stored.digest_head)[:16]}… (backend="
                  f"{stored.backend} provider={stored.backend_provider} "
                  f"precision={stored.precision} workers="
                  f"{stored.engine_workers})")
        )
    elif fresh.state_digest != stored.state_digest:
        report.findings.append(
            (key, "replay reproduced the chain head but not the final "
                  "state digest — the stored record is internally "
                  "inconsistent")
        )
    else:
        log(f"{key[:16]}…: replay head matches")
