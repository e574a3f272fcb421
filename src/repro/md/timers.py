"""Per-task wall-clock timers matching LAMMPS' timing breakdown.

Table 1 of the paper maps a LAMMPS run onto eight computational tasks
(Bond, Comm, Kspace, Modify, Neigh, Output, Pair, Other); the simulation
loop wraps each phase of the timestep in one of these timers so that a
*functional* run produces the same kind of breakdown the paper's
Figure 3 plots for the real code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.observability.tracer import NULL_TRACER

__all__ = ["TASKS", "TaskTimers", "fractions"]

#: The LAMMPS timing categories of Table 1, in the paper's plot order.
TASKS = ("Bond", "Comm", "Kspace", "Modify", "Neigh", "Other", "Output", "Pair")


def fractions(seconds: Mapping[str, float]) -> dict[str, float]:
    """Each entry's share of the summed seconds (all zero if nothing ran)."""
    total = sum(seconds.values())
    if total <= 0:
        return dict.fromkeys(seconds, 0.0)
    return {key: value / total for key, value in seconds.items()}


@dataclass
class TaskTimers:
    """Accumulated wall-clock seconds per task.

    When :attr:`tracer` is an enabled span tracer, every timed region is
    also recorded as a ``"task"``-category span — reusing the timestamps
    the timer already takes, so tracing adds no extra clock reads and
    the span totals match the accumulated seconds by construction.
    """

    seconds: dict[str, float] = field(
        default_factory=lambda: {task: 0.0 for task in TASKS}
    )
    #: Span sink for the timed regions; the shared no-op by default.
    tracer: object = field(default=NULL_TRACER, repr=False, compare=False)

    @contextmanager
    def time(self, task: str) -> Iterator[None]:
        """Context manager accumulating elapsed time into ``task``."""
        if task not in self.seconds:
            raise KeyError(f"unknown task {task!r}; expected one of {TASKS}")
        tracer = self.tracer
        start = time.perf_counter()
        if tracer.enabled:
            tracer.begin(task, "task", ts=start)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.seconds[task] += end - start
            if tracer.enabled:
                tracer.end(ts=end)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def reset(self) -> None:
        for task in self.seconds:
            self.seconds[task] = 0.0
