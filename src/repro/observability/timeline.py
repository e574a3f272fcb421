"""Per-rank timeline profiling for the (simulated) parallel layer.

The paper's Figure 4 derives MPI imbalance from per-rank profiles: each
rank's timestep is compute followed by waiting at the force barrier,
and the waits are what the bottom plot reports.  Before this module the
executor computed that number purely analytically (a mean over the
modelled ``wait_per_rank`` array); now every simulated run materializes
an actual *timeline* — one compute/wait/comm span per rank per step —
and the imbalance is read off the recorded spans, so the plotted
quantity and the inspectable timeline can never diverge.

The timeline renders as an ASCII Gantt chart and replays into a
:class:`~repro.observability.tracer.Tracer` (one ``tid`` per rank); the
tracer is its one route to Chrome trace-event JSON::

    tracer = Tracer()
    timeline.export(tracer)
    tracer.write_chrome_trace(
        "ranks.json",
        tid_names={rank: f"rank {rank}" for rank in range(timeline.n_ranks)},
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RankSpan", "RankTimeline"]


@dataclass(frozen=True)
class RankSpan:
    """One task occupying ``[start, start + duration)`` on one rank."""

    rank: int
    name: str
    cat: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class RankTimeline:
    """Recorded per-rank spans of one representative timestep."""

    n_ranks: int
    spans: list[RankSpan] = field(default_factory=list)

    @classmethod
    def from_model(
        cls,
        compute_seconds: np.ndarray,
        wait_seconds: np.ndarray,
        *,
        comm_seconds: float = 0.0,
    ) -> "RankTimeline":
        """Build the step timeline the analytic executor implies.

        Each rank computes for ``compute_seconds[r]``, waits at the
        barrier for ``wait_seconds[r]`` (the imbalance component), then
        all ranks run the uniform communication tail together.  Span
        *durations* are stored verbatim, so aggregates over the timeline
        reproduce the model's numbers exactly (no start/end round-trip).
        """
        compute_seconds = np.asarray(compute_seconds, dtype=float)
        wait_seconds = np.asarray(wait_seconds, dtype=float)
        if compute_seconds.shape != wait_seconds.shape:
            raise ValueError("one compute and one wait entry per rank required")
        spans: list[RankSpan] = []
        for rank, (compute, wait) in enumerate(zip(compute_seconds, wait_seconds)):
            spans.append(RankSpan(rank, "compute", "compute", 0.0, float(compute)))
            if wait > 0.0:
                spans.append(
                    RankSpan(rank, "mpi_wait", "mpi", float(compute), float(wait))
                )
            if comm_seconds > 0.0:
                spans.append(
                    RankSpan(
                        rank,
                        "comm",
                        "mpi",
                        float(compute) + float(wait),
                        float(comm_seconds),
                    )
                )
        return cls(n_ranks=len(compute_seconds), spans=spans)

    @classmethod
    def from_measured(
        cls,
        compute_seconds: np.ndarray,
        *,
        comm_seconds: float = 0.0,
    ) -> "RankTimeline":
        """Build a timeline from *measured* per-worker compute times.

        The shared-memory engine records only how long each worker's
        force pass took; at a barrier-synchronized step the implied wait
        is ``max(compute) - compute[r]`` per rank — the same quantity the
        analytic model feeds :meth:`from_model`, so measured and modelled
        timelines aggregate (and render) identically.
        """
        compute_seconds = np.asarray(compute_seconds, dtype=float)
        wait_seconds = float(compute_seconds.max()) - compute_seconds
        return cls.from_model(
            compute_seconds, wait_seconds, comm_seconds=comm_seconds
        )

    # ------------------------------------------------------------------
    # Aggregates (what Figure 4 plots, read off the recorded spans)
    # ------------------------------------------------------------------
    def seconds_per_rank(self, name: str) -> np.ndarray:
        """Total seconds each rank spent in spans called ``name``."""
        out = np.zeros(self.n_ranks)
        for span in self.spans:
            if span.name == name:
                out[span.rank] += span.duration
        return out

    def wait_seconds_per_rank(self) -> np.ndarray:
        return self.seconds_per_rank("mpi_wait")

    def imbalance_seconds(self) -> float:
        """Mean per-rank barrier wait — Figure 4 bottom's numerator."""
        return float(np.mean(self.wait_seconds_per_rank()))

    def step_seconds(self) -> float:
        """Wall-clock of the step: the latest span end over all ranks."""
        return max((span.end for span in self.spans), default=0.0)

    def critical_rank(self) -> int:
        """The slowest (bottleneck) rank by compute time."""
        return int(np.argmax(self.seconds_per_rank("compute")))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, tracer) -> None:
        """Replay the timeline into a span tracer (one tid per rank)."""
        for span in self.spans:
            tracer.add_span(
                span.name, span.cat, span.start, span.end, tid=span.rank
            )

    def render(self, *, width: int = 60) -> str:
        """ASCII Gantt chart: one row per rank, ``#`` compute, ``.`` wait."""
        total = self.step_seconds()
        if total <= 0:
            return "timeline: empty"
        lines = [f"per-rank timeline ({total * 1e3:.3f} ms/step):"]
        glyphs = {"compute": "#", "mpi_wait": ".", "comm": "~"}
        for rank in range(self.n_ranks):
            row = [" "] * width
            for span in self.spans:
                if span.rank != rank:
                    continue
                lo = int(round(width * span.start / total))
                hi = int(round(width * span.end / total))
                glyph = glyphs.get(span.name, "?")
                for k in range(lo, max(lo + 1, hi)):
                    if k < width:
                        row[k] = glyph
            lines.append(f"  rank {rank:>3d} |{''.join(row)}|")
        lines.append("  legend: # compute  . mpi wait  ~ comm")
        return "\n".join(lines)
