"""Deterministic fault plans for crash-injection testing.

A fault plan is an ordered list of one-shot :class:`FaultSpec` entries,
each naming *what* fails (``kill`` a worker process or make it
``hang``), *who* fails (the worker id), and *when* (the first dispatch
of a given phase at or after a step number).  A plan enters a run one
way — ``ParallelForceExecutor(fault_plan=...)``, which
``JobSpec.fault_plan`` and the ``--fault-plan`` CLI flag build — and the
engine alone takes its specs, master-side, right before it dispatches
each command (and when a checkpoint write asks), so a spec fires
exactly once even when the run later rolls back past its step — which
is what makes recovery tests deterministic instead of an infinite crash
loop.

Text syntax (``JobSpec.fault_plan`` and ``--fault-plan``)::

    kind:worker:step[:phase][;kind:worker:step[:phase]]...

with ``kind`` one of ``kill``/``hang``, ``phase`` one of ``step``
(default, the pair-force dispatch), ``rebuild`` (the neighbor-rebuild
dispatch) or ``checkpoint`` (a checkpoint write dies midway and the
worker gets its fault with the next command).
Example: ``kill:1:40;hang:0:80:rebuild``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS", "FAULT_PHASES"]

FAULT_KINDS = ("kill", "hang")
FAULT_PHASES = ("step", "rebuild", "checkpoint")


@dataclass
class FaultSpec:
    """One scheduled fault: ``kind`` on ``worker`` at/after ``step``."""

    kind: str
    worker: int
    step: int
    phase: str = "step"
    #: One-shot latch; set by :meth:`FaultPlan.take` when dispatched.
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{'/'.join(FAULT_KINDS)})"
            )
        if self.phase not in FAULT_PHASES:
            raise ValueError(
                f"unknown fault phase {self.phase!r} (expected one of "
                f"{'/'.join(FAULT_PHASES)})"
            )
        self.worker = int(self.worker)
        self.step = int(self.step)
        if self.worker < 0:
            raise ValueError("fault worker id must be non-negative")
        if self.step < 0:
            raise ValueError("fault step must be non-negative")

    def spec_string(self) -> str:
        return f"{self.kind}:{self.worker}:{self.step}:{self.phase}"


class FaultPlan:
    """An ordered collection of one-shot :class:`FaultSpec` entries."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()) -> None:
        self.specs = list(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({'; '.join(s.spec_string() for s in self.specs)})"

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``kind:worker:step[:phase]`` (``;``-separated) syntax."""
        specs: list[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"bad fault spec {chunk!r}: expected "
                    "kind:worker:step[:phase]"
                )
            kind, worker, step = parts[0], parts[1], parts[2]
            phase = parts[3] if len(parts) == 4 else "step"
            try:
                specs.append(
                    FaultSpec(kind=kind, worker=int(worker), step=int(step), phase=phase)
                )
            except ValueError as exc:
                raise ValueError(f"bad fault spec {chunk!r}: {exc}") from exc
        return cls(specs)

    def take(self, step: int, phase: str) -> FaultSpec | None:
        """Pop the first unfired spec due at ``(step, phase)``.

        A spec is due at the first matching-phase dispatch whose step is
        ``>= spec.step`` — consuming it here (master-side, *before* the
        command goes out) is what prevents it from refiring when the
        supervisor rolls the run back past ``spec.step``.
        """
        for spec in self.specs:
            if not spec.fired and spec.phase == phase and step >= spec.step:
                spec.fired = True
                return spec
        return None

    def pending(self) -> list[FaultSpec]:
        """Specs that have not fired yet."""
        return [spec for spec in self.specs if not spec.fired]
