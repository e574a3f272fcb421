"""Job descriptions and their content addresses.

A :class:`JobSpec` is everything the batch service needs to run one
simulation: *what* to simulate (a suite benchmark name or a raw LAMMPS
deck text), *how long* (steps), and the result-determining knobs (atom
count, seed, precision mode, kernel backend).  Its
:meth:`~JobSpec.cache_key` is a SHA-256 over a canonical JSON payload
of exactly those fields — the content address under which the service
caches, dedupes and serves results.

Two submissions share a key **iff** the engine's determinism contracts
make their results interchangeable, so the key deliberately covers:

* the deck identity — the benchmark name + atom count + seed, or the
  SHA-256 of the literal deck text (content, not path);
* the step count;
* the precision mode (parsed, so ``"DOUBLE"`` and ``"double"`` agree);
* the *resolved* kernel backend and — for the compiled backend — its
  native provider kind (``cc``), since an ``auto`` or
  fallen-back request must land on the same address as an explicit one.

and deliberately excludes execution *strategy* that the engine's
contracts make result-neutral:

* ``workers`` — the parallel engine is bitwise across worker counts
  (1, 2 or 4 engine workers give one trajectory: owner-computes keeps
  the reduction order fixed, ``docs/REPRODUCIBILITY.md`` §4), and it
  holds force parity with the serial executor within the per-precision
  tolerance.  Only ``workers=1`` — the serial executor, whose half-list
  summation order differs — is not bit-equal to ``workers>=2``; the
  two are physically interchangeable, so one address serves both;
* ``fault_plan`` / ``checkpoint_every`` — at a fixed worker count,
  recovered runs finish bitwise-identical to uninterrupted ones
  (PR 4's contract);
* ``tag`` — a client-side label.

The payload is serialized with ``sort_keys=True`` and no incidental
state (paths, times, object ids), so the address is stable across
processes, interpreter sessions and dict insertion orders.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.md.kernels import AUTO_BACKEND, available_backends, resolved_backend
from repro.md.precision import parse_precision

__all__ = ["JobSpec", "JobResult", "state_digest"]

#: Canonical-payload schema tag; bump when the key derivation changes
#: (a bump invalidates every cached address, by construction).
SPEC_SCHEMA = "repro-job/1"

#: Integer-valued ``JobSpec`` fields -> smallest accepted value.
_INTEGER_FIELDS = {
    "n_atoms": 1, "steps": 1, "workers": 1, "checkpoint_every": 0, "seed": None,
}


@dataclass(frozen=True)
class JobSpec:
    """One batch-service job: a RunConfig-shaped simulation request.

    Parameters
    ----------
    benchmark:
        Suite benchmark name (``lj``, ``eam``, ...); mutually exclusive
        with ``deck``.
    deck:
        Literal LAMMPS deck text (the supported command subset of
        :mod:`repro.md.deck`); content-hashed for the cache key.
    n_atoms:
        Target atom count for suite builders (ignored for decks, whose
        geometry is in the text).
    steps:
        Timesteps to run.  ``None`` with a deck uses the deck's own
        ``run`` count.
    seed:
        Builder seed; ``None`` keeps the benchmark's default (which is
        part of the deck identity either way — the key records the
        *effective* seed).
    precision:
        Precision mode name (``single``/``mixed``/``double``).
    backend:
        Kernel-backend request (registry name, ``auto``, or ``None``
        for ``numpy_fast``); the *resolved* backend is keyed.
    workers:
        Engine worker processes for this job (1 = serial executor).
        Execution strategy — not part of the cache key.
    fault_plan:
        Optional fault-injection spec string (``kill:1:17``-style, see
        :class:`repro.reliability.FaultPlan`) applied to the job's
        worker pool — the one way a fault reaches a job; recovery makes
        it result-neutral, so it is not keyed.
    checkpoint_every:
        Periodic checkpoint cadence inside the job (0 = only the
        supervisor's baseline checkpoint when recovery is active).
    tag:
        Free-form client label carried through to the result.

    ``n_atoms``, ``steps``, ``workers`` (each >= 1), ``checkpoint_every``
    (>= 0) and ``seed`` must be whole numbers (``bool`` refused) and are
    stored as ``int``, ``backend`` must be a name
    :func:`~repro.md.kernels.get_backend` accepts (checked without
    building one) and ``fault_plan`` must parse; anything else is a
    ``ValueError`` naming the field.
    """

    benchmark: str | None = None
    deck: str | None = None
    n_atoms: int = 500
    steps: int | None = 100
    seed: int | None = None
    precision: str = "double"
    backend: str | None = None
    workers: int = 1
    fault_plan: str | None = None
    checkpoint_every: int = 0
    tag: str | None = None

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.deck is None):
            raise ValueError(
                "exactly one of benchmark= or deck= must be given"
            )
        if self.steps is None and self.deck is None:
            raise ValueError("steps=None is only valid for deck jobs")
        # Whole numbers only, stored as ``int``: a spec that cannot run
        # is refused here (and by ``from_json``), not inside a worker.
        for name, minimum in _INTEGER_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in ("steps", "seed"):
                continue
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and value % 1 == 0):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if minimum is not None and value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
            object.__setattr__(self, name, int(value))
        # Fail fast on typos before the job ever reaches a worker.
        parse_precision(self.precision)
        if self.backend not in (None, AUTO_BACKEND, *available_backends()):
            raise ValueError(
                f"backend must be None, {AUTO_BACKEND!r} or one of "
                f"{available_backends()}, got {self.backend!r}"
            )
        if self.fault_plan is not None:
            from repro.reliability.faultplan import FaultPlan

            if not isinstance(self.fault_plan, str):
                raise ValueError(
                    f"fault_plan must be a string, got {self.fault_plan!r}"
                )
            try:
                FaultPlan.parse(self.fault_plan)
            except ValueError as exc:
                raise ValueError(f"fault_plan: {exc}") from None
        if self.benchmark is not None:
            from repro.suite import get_benchmark

            get_benchmark(self.benchmark)  # raises KeyError on unknowns

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def effective_seed(self) -> int | None:
        """The seed the builder will actually use (default-resolved)."""
        if self.seed is not None:
            return self.seed
        if self.benchmark is None:
            return None  # decks carry their seeds in the text
        import inspect

        from repro.suite import get_benchmark

        build = get_benchmark(self.benchmark).build
        parameter = inspect.signature(build).parameters.get("seed")
        if parameter is None or parameter.default is inspect.Parameter.empty:
            return None
        return int(parameter.default)

    def canonical_payload(self) -> dict[str, Any]:
        """The JSON-safe dict the cache key is derived from.

        Only result-determining fields appear; every value is a plain
        scalar so ``json.dumps(sort_keys=True)`` yields one canonical
        byte string regardless of construction order or process.
        """
        # The address names the backend that will *execute*, not the
        # one that was asked for.
        name, provider = resolved_backend(self.backend)
        return {
            "schema": SPEC_SCHEMA,
            "benchmark": self.benchmark,
            "deck_sha256": (
                None
                if self.deck is None
                else hashlib.sha256(self.deck.encode()).hexdigest()
            ),
            "n_atoms": None if self.deck is not None else self.n_atoms,
            "steps": self.steps,
            "seed": self.effective_seed(),
            "precision": parse_precision(self.precision).value,
            "backend": name,
            "backend_provider": provider,
        }

    def cache_key(self) -> str:
        """SHA-256 content address of this job's result."""
        payload = json.dumps(
            self.canonical_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Wire format (spool files, worker payloads)
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """Wire form for spool files and worker payloads.

        A ``None`` may only be elided when the field's default is also
        ``None`` — ``steps`` defaults to 100, so ``steps=None`` (a deck
        job using the deck's own run count) must travel explicitly or
        ``from_json`` would resurrect it as 100 and the worker would
        run the wrong job under the submit-side cache key.
        """
        fields = type(self).__dataclass_fields__
        return {
            k: v
            for k, v in asdict(self).items()
            if not (v is None and fields[k].default is None)
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**data)


def state_digest(system) -> str:
    """SHA-256 over the final dynamical state, for bitwise comparisons.

    Hashes the raw position and velocity bytes (in storage dtype), so
    two runs agree iff they finished bit-for-bit identical — the
    currency of the engine's determinism and recovery contracts.
    """
    import numpy as np

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(system.positions))
    digest.update(np.ascontiguousarray(system.velocities))
    return digest.hexdigest()


@dataclass
class JobResult:
    """What the service stores and serves for one content address."""

    key: str
    benchmark: str | None
    n_atoms: int
    steps: int
    seed: int | None
    precision: str
    backend: str
    #: Native provider kind when ``backend == "compiled"`` else None.
    backend_provider: str | None
    total_energy: float
    potential_energy: float
    temperature: float
    #: SHA-256 of the final positions+velocities bytes.
    state_digest: str
    wall_seconds: float
    ts_per_s: float
    #: Pool worker that executed the job (-1 for in-process execution).
    worker_id: int = -1
    #: Engine workers the job ran on (1 = serial executor).
    engine_workers: int = 1
    #: Recovery events (respawns/degradations) during the run.
    recovery_events: int = 0
    #: True when this result was served from the cache, not executed.
    #: Always False in the stored record; the service sets it on the
    #: *served copy* so clients can tell a hit from a fresh run.
    cached: bool = False
    tag: str | None = None
    #: Head of the run's hash-chained trajectory digest chain (see
    #: ``docs/REPRODUCIBILITY.md``); None for legacy records.
    digest_head: str | None = None
    #: Cadence (steps) the digest chain was recorded at.
    digest_every: int = 0
    #: The full chain records (JSON-safe), so ``repro certify --cache``
    #: can re-verify linkage and replay without the original run dir.
    digest_chain: list = field(default_factory=list)
    #: Wire form of the spec that produced this result, kept so an
    #: audit can recompute the content address and re-execute the job.
    spec_json: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobResult":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
