"""Outside-in span recorder for the end-to-end benchmark.

A span is ``[name, start, end, parent]``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the index of the span
that was open when this one began (``-1`` for a root).  Spans stay in
one in-memory list and are written once, as Chrome-trace JSON, when the
workload ends.

The recorder is used at two granularities:

* **coarse spans** (job, setup, chunk, round, wave ...) are opened by the
  benchmark's own driver code with :meth:`Recorder.span`.  They are the
  stopwatch every end-to-end metric is read from, so they are always on.
* **call spans** are recorded around every call into a layer by
  :meth:`Recorder.wrap`, which shadows one bound public method on one
  live object with a timing closure.  Only the traced run installs them;
  the difference between the two runs is ``trace.overhead_frac``.

Nothing here imports the program under test: layers are timed at their
public boundary, from outside.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import mean

NAME, START, END, PARENT = range(4)


class Recorder:
    """Span list plus the stack of currently open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, name: str | None = None) -> None:
        """Close the innermost span, optionally renaming it.

        Renaming at close lets a call span carry its outcome, e.g. a
        neighbor-list ``check`` that turned into a ``build``.
        """
        now = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[END] = now
        if name is not None:
            span[NAME] = name

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end()

    def wrap(self, obj, attr: str, name) -> None:
        """Record a span around every later call of ``obj.attr``.

        ``name`` is the span name, or a callable mapping the call's
        return value to one.  The wrapper is set on the *instance*, so
        only this object of this job is traced.  ``object.__setattr__``
        also reaches frozen dataclass instances (``JobSpec``).
        """
        method = getattr(obj, attr)
        begin, end = self.begin, self.end
        if callable(name):
            def traced(*args, **kwargs):
                begin(attr)
                result = None
                try:
                    result = method(*args, **kwargs)
                    return result
                finally:
                    end(name(result))
        else:
            def traced(*args, **kwargs):
                begin(name)
                try:
                    return method(*args, **kwargs)
                finally:
                    end()
        object.__setattr__(obj, attr, traced)

    # ------------------------------------------------------------------
    # Reading spans back
    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def find(self, name: str, under: int | None = None) -> list[int]:
        """Indices of spans called ``name`` (below ``under``, if given)."""
        hits = [i for i, s in enumerate(self.spans) if s[NAME] == name]
        if under is None:
            return hits
        return [i for i in hits if self._descends(i, under)]

    def _descends(self, index: int, ancestor: int) -> bool:
        while index != -1:
            index = self.spans[index][PARENT]
            if index == ancestor:
                return True
        return False

    def self_times(self, under: int) -> dict[str, list[float]]:
        """Self time of every span below ``under``, grouped by name.

        Self time is a span's duration minus the durations of its direct
        children; ``under`` itself is included under its own name.
        """
        child_total = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[PARENT] != -1:
                child_total[span[PARENT]] += self.duration(index)
        grouped: dict[str, list[float]] = {}
        for index, span in enumerate(self.spans):
            if index == under or self._descends(index, under):
                grouped.setdefault(span[NAME], []).append(
                    self.duration(index) - child_total[index]
                )
        return grouped

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        """One Chrome-trace (``chrome://tracing`` / Perfetto) JSON file."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": workload,
                "tid": 0,
                "args": {"id": index, "parent": span[PARENT]},
            }
            for index, span in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}) + "\n")


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
# The bench host's cores change speed (1.0, ~1.4x slower, at times 2x
# and more), each on its own, in episodes of a fraction of a second to
# minutes (it shares a socket).  That is far more than any bound a
# regression could be held to, and no number of repeats inside a 10 s
# run averages out an episode that outlasts the run.  A fixed probe is therefore timed between the stages of every job
# or round, and each stage's wall time is divided by the slowdown the
# probes on either side of it saw (:func:`calibrated`): time-based
# end-to-end metrics are reported in these *calibrated* seconds.
#: Time of one probe loop on the quiet reference host (2-core Xeon
#: 2.1 GHz VM).
PROBE_NOMINAL_S = 0.0022


def _probe_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def _probe_here() -> float:
    # Fastest of three: a stall that lands in the probe itself (one read
    # 3.4 between neighbours at 0.9) would otherwise make the stages
    # beside it look fast, and a stage is reported at its fastest.
    return min(_probe_loop(), _probe_loop(), _probe_loop()) / PROBE_NOMINAL_S


def host_probe(every_core: bool = False) -> float:
    """Slowdown of the host right now, relative to the nominal time.

    An interpreter-bound loop: it runs none of the program's code and
    allocates nothing, so neither a change to the program nor the state
    the program left the allocator or the caches in can move it (a NumPy
    pass over fresh arrays was tried and read 0.7 or 1.2 depending on
    whether glibc served it from the heap or from ``mmap``).  Over 10 min
    of interleaved probes and LJ / EAM / Tersoff steps it tracked their
    step time to 3-5 %.  ~7 ms; call it between stages, never inside a
    timed span.

    A single-process workload stays on one core and probes it where it is; a workload whose work
    also runs in other processes (engine workers, the service pool) asks
    for ``every_core``: the calling thread is pinned to each allowed core
    in turn and the mean is returned.
    """
    if not every_core:
        return _probe_here()
    allowed = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            samples.append(_probe_here())
    finally:
        os.sched_setaffinity(0, allowed)
    return mean(samples)


def calibrated(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` seconds of one stage in calibrated seconds."""
    return wall / (probe_before * probe_after) ** 0.5


# ----------------------------------------------------------------------
# Measurement loop shared by the engine and service drivers
# ----------------------------------------------------------------------
def repeat_for(seconds: float, minimum: int, run_once) -> list:
    """Call ``run_once(i)`` until ``seconds`` have passed, at least
    ``minimum`` times; the repeats are identical work, so their median
    is the reported value and their spread is machine noise."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(run_once(len(results)))
    return results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]
