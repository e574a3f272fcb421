"""Hash-chained per-interval trajectory digests.

The unit of trust is the **interval digest**: a SHA-256 over the
canonicalized dynamical state of a :class:`~repro.md.simulation.
Simulation` at one step — the ``digested`` rows of
:data:`repro.md.state.STATE_ARRAYS` (box, positions, velocities, forces,
plus granular omega/torques when present) as little-endian float64
bytes in table order, followed by the integrator's canonical-JSON state.
Promoting float32 storage to float64 is exact, so the byte stream is a
pure function of the simulated numbers, not of the storage dtype's
memory layout, strides, or platform byte order.

Digests are **chained**: entry *k* carries
``chained_k = SHA256(chained_{k-1} || digest_k || index:step || witness)``
with ``chained_{-1}`` a schema-derived genesis value.  Editing,
reordering, or truncating any interval therefore invalidates every
later ``chained`` value and the chain head — tampering anywhere
invalidates the tail, which is what lets a manifest certify a whole
run by recording one head hash.

Each entry also records a small **witness** (total/potential energy and
temperature).  Witnesses are covered by the chained hash and are what
cross-mode verification compares when bitwise equality is off the
table (different kernel backend, compiled provider, or precision mode
— see ``docs/REPRODUCIBILITY.md`` §4: the engine's backends agree only
to the last ulp, not bit for bit).

Re-executed steps are first-class: crash recovery (PR 4) replays from
the latest checkpoint, so :meth:`DigestChain.observe` treats a
same-step observation as a *verification* — the recomputed digest must
match the recorded one (the bitwise-recovery contract) and a mismatch
raises :class:`DigestChainError` loudly instead of corrupting the
chain.  Only the documented non-bitwise recovery path (degradation to
the serial executor) rewinds the chain, via :meth:`DigestChain.
rewind_to`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write
from repro.md.state import held_arrays, json_default

__all__ = [
    "CHAIN_SCHEMA",
    "DigestChainError",
    "DigestEntry",
    "DigestChain",
    "DigestRecorder",
    "interval_digest",
    "state_witness",
]

#: Chain-file schema tag; also the seed of the genesis chained value.
CHAIN_SCHEMA = "repro-digest-chain/1"


class DigestChainError(ValueError):
    """A digest chain is broken: tampered, truncated, or diverged."""


def _canonical_json(payload) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode("utf-8")


def _hash_array(digest, name: str, array) -> None:
    data = np.ascontiguousarray(np.asarray(array, dtype="<f8"))
    digest.update(name.encode("utf-8"))
    digest.update(np.int64(data.size).tobytes())
    digest.update(data)  # the buffer itself: same bytes, no copy


def interval_digest(simulation) -> str:
    """SHA-256 over the canonicalized dynamical state at this step.

    Two simulations produce the same digest **iff** they hold bitwise
    the same step counter, box, per-atom state, and integrator state —
    the currency of the engine's determinism contracts (identical
    backend + precision + worker-count execution is bitwise
    reproducible; everything else is compared through witnesses).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-state-digest/1")
    digest.update(np.int64(simulation.step_number).tobytes())
    for row, value in held_arrays(simulation.system, "digested"):
        _hash_array(digest, row.name, value)
    digest.update(
        _canonical_json(
            {
                "integrator": type(simulation.integrator).__name__,
                "state": simulation.integrator.state_dict(),
            }
        )
    )
    return digest.hexdigest()


def state_witness(simulation) -> dict:
    """The small JSON-safe observable set recorded with each digest:
    the total energy and the temperature from one kinetic-energy sum
    (the floats ``total_energy()`` and ``temperature()`` give)."""
    system = simulation.system
    kinetic = system.kinetic_energy()
    return {
        "total_energy": float(kinetic + simulation.potential_energy),
        "potential_energy": float(simulation.potential_energy),
        "temperature": float(
            system.temperature(simulation.n_constraints, kinetic)
        ),
    }


@dataclass(frozen=True)
class DigestEntry:
    """One link of the chain: an interval digest plus its chained hash."""

    index: int
    step: int
    digest: str
    chained: str
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "step": self.step,
            "digest": self.digest,
            "chained": self.chained,
            "witness": self.witness,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DigestEntry":
        return cls(
            index=int(data["index"]),
            step=int(data["step"]),
            digest=str(data["digest"]),
            chained=str(data["chained"]),
            witness=dict(data.get("witness", {})),
        )


def _chain_hash(previous: str, digest: str, index: int, step: int,
                witness: dict) -> str:
    payload = hashlib.sha256()
    payload.update(previous.encode("ascii"))
    payload.update(digest.encode("ascii"))
    payload.update(f"{index}:{step}".encode("ascii"))
    payload.update(_canonical_json(witness))
    return payload.hexdigest()


class DigestChain:
    """An append-only, hash-chained sequence of interval digests."""

    def __init__(self) -> None:
        self.entries: list[DigestEntry] = []

    # ------------------------------------------------------------------
    @property
    def genesis(self) -> str:
        """The chained value before any entry (schema-derived)."""
        return hashlib.sha256(CHAIN_SCHEMA.encode("ascii")).hexdigest()

    @property
    def head(self) -> str:
        """The chained hash of the newest entry (genesis when empty)."""
        return self.entries[-1].chained if self.entries else self.genesis

    def entry_at_step(self, step: int) -> DigestEntry | None:
        for entry in reversed(self.entries):
            if entry.step == step:
                return entry
        return None

    def steps(self) -> list[int]:
        return [entry.step for entry in self.entries]

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append_record(self, step: int, digest: str, witness: dict) -> DigestEntry:
        """Append one pre-computed record, chaining it to the head."""
        index = len(self.entries)
        entry = DigestEntry(
            index=index,
            step=int(step),
            digest=digest,
            chained=_chain_hash(self.head, digest, index, int(step), witness),
            witness=dict(witness),
        )
        self.entries.append(entry)
        return entry

    def observe(self, simulation) -> DigestEntry:
        """Record the simulation's current state as the next link.

        Observing a step that is already recorded (crash recovery
        re-executes steps from the latest checkpoint) *verifies* instead
        of appending: the recomputed digest must equal the recorded one
        — the bitwise-recovery contract — and a mismatch raises
        :class:`DigestChainError` naming the step.
        """
        step = int(simulation.step_number)
        existing = self.entry_at_step(step)
        if existing is not None:
            digest = interval_digest(simulation)
            if digest != existing.digest:
                raise DigestChainError(
                    f"re-executed step {step} diverged from its recorded "
                    f"digest ({digest[:16]}… vs {existing.digest[:16]}…): "
                    "recovery is contractually bitwise, so the trajectory "
                    "or the chain has been corrupted"
                )
            return existing
        if self.entries and step < self.entries[-1].step:
            raise DigestChainError(
                f"out-of-order observation at step {step}: the chain "
                f"already ends at step {self.entries[-1].step} and has no "
                f"record for {step} to verify against"
            )
        return self.append_record(
            step, interval_digest(simulation), state_witness(simulation)
        )

    def rewind_to(self, step: int) -> int:
        """Drop entries after ``step``; returns how many were dropped.

        Only the degrade-to-serial recovery path uses this: serial
        continuation is documented as *not* bitwise with the parallel
        prefix, so the tail recorded before the failure is no longer
        the run's trajectory and must be re-recorded.
        """
        kept = [entry for entry in self.entries if entry.step <= int(step)]
        dropped = len(self.entries) - len(kept)
        self.entries = kept
        return dropped

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Recompute every chained hash; raise on the first bad link."""
        previous = self.genesis
        last_step = None
        for position, entry in enumerate(self.entries):
            if entry.index != position:
                raise DigestChainError(
                    f"chain record {position} carries index {entry.index}: "
                    "records were reordered or removed"
                )
            if last_step is not None and entry.step <= last_step:
                raise DigestChainError(
                    f"chain record {position} (step {entry.step}) does not "
                    f"advance past step {last_step}: records were "
                    "reordered or duplicated"
                )
            expected = _chain_hash(
                previous, entry.digest, entry.index, entry.step, entry.witness
            )
            if entry.chained != expected:
                raise DigestChainError(
                    f"chain record {position} (step {entry.step}) fails its "
                    f"chained hash: the record (or an earlier one) was "
                    "edited — every digest from here to the head is invalid"
                )
            previous = entry.chained
            last_step = entry.step

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the chain as JSONL (header line + one line per entry).

        The write is atomic (temp file + ``os.replace``) so a crash can
        never leave a half-written chain under the final name.
        """
        lines = [json.dumps({"schema": CHAIN_SCHEMA})]
        lines.extend(
            json.dumps(entry.to_json(), sort_keys=True)
            for entry in self.entries
        )
        return atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DigestChain":
        """Parse a chain file and verify its linkage."""
        path = Path(path)
        if not path.exists():
            raise DigestChainError(f"no digest chain at {path}")
        lines = [
            line for line in path.read_text().splitlines() if line.strip()
        ]
        if not lines:
            raise DigestChainError(f"digest chain {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise DigestChainError(
                f"digest chain {path} header is not JSON: {exc}"
            ) from exc
        if header.get("schema") != CHAIN_SCHEMA:
            raise DigestChainError(
                f"digest chain {path} has schema "
                f"{header.get('schema')!r}, expected {CHAIN_SCHEMA!r}"
            )
        chain = cls()
        for number, line in enumerate(lines[1:], start=2):
            try:
                chain.entries.append(DigestEntry.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DigestChainError(
                    f"digest chain {path} line {number} is unreadable: "
                    f"{exc!r}"
                ) from exc
        chain.verify()
        return chain

    @classmethod
    def from_records(cls, records) -> "DigestChain":
        """Rebuild and verify a chain from JSON-safe records (a JobResult's)."""
        chain = cls()
        chain.entries = [DigestEntry.from_json(record) for record in records]
        chain.verify()
        return chain

    def __len__(self) -> int:
        return len(self.entries)


class DigestRecorder:
    """Cadenced chain recording, pluggable into ``RunConfig(digest=)``.

    ``maybe_record`` observes the simulation on every step divisible by
    ``every`` — the same cadence contract as
    :meth:`~repro.reliability.CheckpointManager.maybe_checkpoint`, so a
    recorder sharing a checkpoint manager's cadence digests exactly the
    states the retained snapshots hold, which is what makes replay
    verification possible.  When a ``path`` is given, every change is
    persisted atomically.
    """

    def __init__(
        self,
        *,
        every: int,
        path: str | Path | None = None,
        chain: DigestChain | None = None,
    ) -> None:
        if int(every) < 1:
            raise ValueError("every must be >= 1")
        self.every = int(every)
        self.path = None if path is None else Path(path)
        self.chain = chain if chain is not None else DigestChain()

    def _persist(self) -> None:
        if self.path is not None:
            self.chain.save(self.path)

    def maybe_record(self, simulation) -> DigestEntry | None:
        """Periodic hook for ``Simulation.run``: record on the cadence."""
        if simulation.step_number % self.every != 0:
            return None
        return self.record(simulation)

    def record(self, simulation) -> DigestEntry:
        """Observe the current state unconditionally (cadence-ignoring)."""
        before = len(self.chain)
        entry = self.chain.observe(simulation)
        if len(self.chain) != before:
            self._persist()
        return entry

    def rewind_to(self, step: int) -> int:
        """Forward to :meth:`DigestChain.rewind_to`, persisting."""
        dropped = self.chain.rewind_to(step)
        if dropped:
            self._persist()
        return dropped

    def finalize(self, simulation) -> DigestEntry:
        """Record the final state even when it is off the cadence.

        Idempotent: if the final step is already the newest entry this
        verifies it instead of appending, so chains end at the run's
        last step exactly once regardless of ``steps % every``.
        """
        return self.record(simulation)
