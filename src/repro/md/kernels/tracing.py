"""Span-tracing decorator around any kernel backend.

The Pair task dominates MD wall-clock (Table 1), so seeing *inside* it
matters: this wrapper records one ``"kernel"``-category span per
backend primitive — pair-geometry gather, force accumulation, generic
scatter, fused pair pass — around whatever backend the simulation
selected.  It is only
installed when tracing is enabled, so the disabled-tracer hot path runs
the raw backend with zero indirection.
"""

from __future__ import annotations

from repro.md.kernels.base import KernelBackend
from repro.observability.tracer import Tracer

__all__ = ["TracingBackend"]


class TracingBackend(KernelBackend):
    """Delegating backend that wraps each primitive in a tracer span."""

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        if isinstance(inner, TracingBackend):
            inner = inner.inner
        #: The real backend doing the work (scratch buffers live there).
        self.inner = inner
        self.tracer = tracer
        self.name = f"{inner.name}+trace"

    @property
    def policy(self):
        return self.inner.policy

    def set_policy(self, policy) -> None:
        self.inner.set_policy(policy)

    def current_pairs(self, system, neighbors, cutoff=None):
        with self.tracer.span("kernel.current_pairs", "kernel"):
            return self.inner.current_pairs(system, neighbors, cutoff)

    def pair_forces(self, style, rows):
        # The span also covers a declined call (``None``): the unfused
        # primitives that follow record their own.
        with self.tracer.span("kernel.pair_forces", "kernel"):
            return self.inner.pair_forces(style, rows)

    def scatter_add(self, out, index, values):
        with self.tracer.span("kernel.scatter_add", "kernel"):
            self.inner.scatter_add(out, index, values)

    def scatter_add_sorted(self, out, index, values):
        with self.tracer.span("kernel.scatter_add", "kernel"):
            self.inner.scatter_add_sorted(out, index, values)

    def neighbor_pairs(self, positions, box, rc, count_cutoff=None):
        # No span: the neighbor module already wraps the whole build in
        # its "neigh.cell_pairs" span; the delegation just keeps a
        # traced compiled backend on its native build path.
        return self.inner.neighbor_pairs(positions, box, rc, count_cutoff)

    def directed_rows(
        self, positions, box, rc, sort_key=None, anchor_limit=None,
        count_cutoff=None,
    ):
        # No span, as neighbor_pairs: engine workers time the rebuild.
        return self.inner.directed_rows(
            positions, box, rc, sort_key, anchor_limit, count_cutoff
        )

    def count_pairs_within(self, positions, box, pair_i, pair_j, rc):
        # Same reasoning as neighbor_pairs: covered by the build span.
        return self.inner.count_pairs_within(positions, box, pair_i, pair_j, rc)

    def max_displacement_sq(self, positions, reference, box):
        # No span: one call per step inside the step's "neigh" phase.
        return self.inner.max_displacement_sq(positions, reference, box)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        with self.tracer.span("kernel.accumulate", "kernel"):
            self.inner.accumulate_pair_forces(forces, i, j, fvec)

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        with self.tracer.span("kernel.accumulate", "kernel"):
            self.inner.accumulate_scaled_pair_forces(forces, i, j, dr, f_over_r)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TracingBackend inner={self.inner!r}>"
