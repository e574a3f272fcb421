"""Per-phase energy attribution: joules against the span timeline.

A power sample says "the node drew E joules between t0 and t1"; the
PR-2 span tracer says "Pair ran from a to b, Neigh from c to d, ...".
Intersecting the two attributes each sample's energy to the phases that
were executing while it was taken: every sample's energy is spread
uniformly over its interval (the best a 0.5 s cadence can justify — the
LAMMPS time-measurement note is the reference for not pretending finer
resolution than the instrument has) and each phase receives the share
of the interval it overlapped.  Wall time inside a sample that no
selected span covers lands in ``"(untracked)"`` so the attribution
always sums to the measured total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.telemetry.providers import IntervalSample

__all__ = [
    "PhaseEnergy",
    "EnergyAttribution",
    "attribute_energy",
    "render_energy_table",
    "UNTRACKED",
]

#: Phase key for sampled wall time not covered by any selected span.
UNTRACKED = "(untracked)"

#: Span categories that count as attributable phases by default: the
#: Table 1 task spans (Pair, Neigh, Comm, Kspace, Modify, Output, Bond,
#: Other) plus the PR-4 checkpoint-write spans.
DEFAULT_CATEGORIES = ("task", "checkpoint")


@dataclass
class PhaseEnergy:
    """Energy and busy time attributed to one phase."""

    name: str
    joules: float = 0.0
    busy_s: float = 0.0

    @property
    def watts(self) -> float:
        """Mean draw while the phase was executing."""
        return self.joules / self.busy_s if self.busy_s > 0 else 0.0


@dataclass
class EnergyAttribution:
    """The full attribution result over one run."""

    phases: dict[str, PhaseEnergy] = field(default_factory=dict)
    total_joules: float = 0.0
    sampled_s: float = 0.0

    @property
    def coverage(self) -> float:
        """Fraction of sampled energy attributed to named phases."""
        tracked = self.total_joules - self.phases.get(
            UNTRACKED, PhaseEnergy(UNTRACKED)
        ).joules
        return tracked / self.total_joules if self.total_joules > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "total_joules": self.total_joules,
            "sampled_s": self.sampled_s,
            "coverage": self.coverage,
            "phases": {
                name: {
                    "joules": phase.joules,
                    "busy_s": phase.busy_s,
                    "watts": phase.watts,
                }
                for name, phase in sorted(
                    self.phases.items(), key=lambda kv: -kv[1].joules
                )
            },
        }


def attribute_energy(
    samples: list[IntervalSample],
    spans,
    *,
    categories: tuple[str, ...] = DEFAULT_CATEGORIES,
) -> EnergyAttribution:
    """Intersect sample intervals with span timelines.

    ``spans`` is an iterable of objects with ``name``/``cat``/``start``/
    ``end`` attributes (:class:`~repro.observability.tracer.SpanRecord`
    rows, or anything shaped like them).  Only spans in ``categories``
    participate; they are assumed non-overlapping among themselves
    within one timeline (true of the engine's task and checkpoint
    spans), so each instant of a sample belongs to at most one phase.
    """
    selected = [s for s in spans if s.cat in categories and s.end > s.start]
    selected.sort(key=lambda s: s.start)
    result = EnergyAttribution()
    phases = result.phases

    for sample in samples:
        duration = sample.duration_s
        if duration <= 0:
            continue
        result.total_joules += sample.joules
        result.sampled_s += duration
        power = sample.joules / duration
        covered = 0.0
        for span in selected:
            if span.end <= sample.t_start:
                continue
            if span.start >= sample.t_end:
                break  # spans sorted by start: nothing later overlaps
            overlap = min(span.end, sample.t_end) - max(span.start, sample.t_start)
            if overlap <= 0:
                continue
            phase = phases.get(span.name)
            if phase is None:
                phase = phases[span.name] = PhaseEnergy(span.name)
            phase.joules += power * overlap
            phase.busy_s += overlap
            covered += overlap
        leftover = duration - covered
        if leftover > 1e-12:
            untracked = phases.get(UNTRACKED)
            if untracked is None:
                untracked = phases[UNTRACKED] = PhaseEnergy(UNTRACKED)
            untracked.joules += power * leftover
            untracked.busy_s += leftover
    return result


def render_energy_table(
    attribution: EnergyAttribution,
    *,
    steps: int | None = None,
    title: str = "Per-phase energy breakdown:",
) -> str:
    """Aligned text table: joules, watts-while-busy, share per phase."""
    lines = [
        title,
        f"{'phase':<16s}| {'joules':>10s} | {'watts':>8s} | "
        f"{'J/step':>10s} | {'%total':>6s}",
        "-" * 62,
    ]
    total = attribution.total_joules
    ranked = sorted(attribution.phases.values(), key=lambda p: -p.joules)
    for phase in ranked:
        share = 100.0 * phase.joules / total if total > 0 else 0.0
        per_step = f"{phase.joules / steps:>10.4f}" if steps else f"{'-':>10s}"
        lines.append(
            f"{phase.name:<16s}| {phase.joules:>10.3f} | {phase.watts:>8.2f} "
            f"| {per_step} | {share:>6.2f}"
        )
    lines.append(
        f"total: {total:.3f} J over {attribution.sampled_s:.2f} s sampled "
        f"({100.0 * attribution.coverage:.1f}% attributed to phases)"
    )
    return "\n".join(lines)
