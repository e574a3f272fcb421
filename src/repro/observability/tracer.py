"""Low-overhead span tracer with a preallocated ring buffer.

The paper's contribution is *measurement*: per-task breakdowns
(Table 1), MPI imbalance (Figure 4) and scaling curves all come from
knowing where time went.  :class:`~repro.md.timers.TaskTimers` gives
the aggregate view; this module records the *timeline* — every phase of
every timestep as a begin/end span — so a run can be inspected in
`chrome://tracing` / Perfetto or summarized as a flamegraph-style text
report.

Design constraints:

* **Zero cost when disabled.**  The engine holds a tracer object
  unconditionally; the default is the shared :data:`NULL_TRACER`
  singleton whose ``enabled`` flag lets hot paths skip instrumentation
  with a single attribute check (and whose ``span()`` returns a reusable
  no-op context manager for cold paths).
* **Bounded memory.**  Spans land in preallocated numpy column arrays
  used as a ring buffer: once ``capacity`` spans have been recorded the
  oldest are overwritten and counted in :attr:`Tracer.n_dropped` —
  a week-long run can keep a tracer attached without growing.
* **No serialization on the hot path.**  Span names are interned to
  integer ids at record time; strings are only materialized on export.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
]

#: Default ring capacity — ~64k spans is hours of engine stepping at the
#: ~12 spans/step the instrumented timestep emits.
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, materialized out of the ring buffer."""

    name: str
    cat: str
    start: float
    end: float
    depth: int
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Reusable no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Hot paths should guard with ``if tracer.enabled:``; cold paths can
    simply ``with tracer.span(...):`` — both cost a single attribute
    access here.
    """

    __slots__ = ()
    enabled = False

    def begin(self, name: str, cat: str = "", ts: float | None = None) -> None:
        pass

    def end(self, ts: float | None = None) -> None:
        pass

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        tid: int = 0,
        depth: int = 0,
    ) -> None:
        pass

    def span(self, name: str, cat: str = "") -> _NullSpan:
        return _NULL_SPAN

    def reset(self) -> None:
        pass


#: The shared disabled tracer every instrumented object defaults to.
NULL_TRACER = NullTracer()


class _Span:
    """Class-based context manager (cheaper than a generator) for spans."""

    __slots__ = ("_tracer", "_name", "_cat")

    def __init__(self, tracer: "Tracer", name: str, cat: str) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat

    def __enter__(self) -> None:
        self._tracer.begin(self._name, self._cat)
        return None

    def __exit__(self, *exc) -> bool:
        self._tracer.end()
        return False


class Tracer:
    """Recording tracer: begin/end spans into a fixed-size ring buffer.

    Parameters
    ----------
    capacity:
        Maximum retained spans; older spans are overwritten (and counted
        in :attr:`n_dropped`) once the ring wraps.
    clock:
        Monotonic time source (seconds).  Injectable for tests.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        clock=time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._clock = clock
        # Interned names: strings touch the hot path only on first use.
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Ring columns (preallocated once).
        self._name_id = np.zeros(self.capacity, dtype=np.int32)
        self._cat_id = np.zeros(self.capacity, dtype=np.int32)
        self._start = np.zeros(self.capacity, dtype=np.float64)
        self._end = np.zeros(self.capacity, dtype=np.float64)
        self._depth = np.zeros(self.capacity, dtype=np.int16)
        self._tid = np.zeros(self.capacity, dtype=np.int32)
        self._n = 0  # spans ever recorded (monotonic)
        self._stack: list[tuple[int, int, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._names.append(name)
            self._name_ids[name] = ident
        return ident

    def begin(self, name: str, cat: str = "", ts: float | None = None) -> None:
        """Open a span; pass ``ts`` to reuse an already-taken timestamp."""
        if ts is None:
            ts = self._clock()
        self._stack.append((self._intern(name), self._intern(cat), ts))

    def end(self, ts: float | None = None) -> None:
        """Close the innermost open span."""
        if not self._stack:
            raise RuntimeError("Tracer.end() without a matching begin()")
        if ts is None:
            ts = self._clock()
        name_id, cat_id, start = self._stack.pop()
        self._record(name_id, cat_id, start, ts, len(self._stack), 0)

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        tid: int = 0,
        depth: int = 0,
    ) -> None:
        """Record an externally-timed span (e.g. a modelled rank task)."""
        self._record(self._intern(name), self._intern(cat), start, end, depth, tid)

    def _record(
        self,
        name_id: int,
        cat_id: int,
        start: float,
        end: float,
        depth: int,
        tid: int,
    ) -> None:
        k = self._n % self.capacity
        self._name_id[k] = name_id
        self._cat_id[k] = cat_id
        self._start[k] = start
        self._end[k] = end
        self._depth[k] = depth
        self._tid[k] = tid
        self._n += 1

    def span(self, name: str, cat: str = "") -> _Span:
        """Context manager recording one span around its body."""
        return _Span(self, name, cat)

    def reset(self) -> None:
        """Drop all recorded spans (e.g. after warmup steps).

        Must not be called with spans still open; the open-span stack is
        cleared too, so a mid-span reset would orphan the pending
        ``end()``.
        """
        self._n = 0
        self._stack.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_recorded(self) -> int:
        """Spans currently held in the ring."""
        return min(self._n, self.capacity)

    @property
    def n_dropped(self) -> int:
        """Spans overwritten after the ring wrapped."""
        return max(0, self._n - self.capacity)

    def records(self) -> list[SpanRecord]:
        """Retained spans in insertion (= end-time) order, oldest first."""
        if self._n <= self.capacity:
            indices = range(self._n)
        else:
            head = self._n % self.capacity
            indices = [*range(head, self.capacity), *range(head)]
        return [
            SpanRecord(
                name=self._names[self._name_id[k]],
                cat=self._names[self._cat_id[k]],
                start=float(self._start[k]),
                end=float(self._end[k]),
                depth=int(self._depth[k]),
                tid=int(self._tid[k]),
            )
            for k in indices
        ]

    def totals_by_name(self, cat: str | None = None) -> dict[str, float]:
        """Total seconds per span name, optionally filtered by category."""
        totals: dict[str, float] = {}
        for record in self.records():
            if cat is not None and record.cat != cat:
                continue
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return totals

    def task_totals(self) -> dict[str, float]:
        """Seconds per Table-1 task, summed over the recorded spans.

        Spans emitted by :class:`~repro.md.timers.TaskTimers` carry the
        ``"task"`` category; their per-name totals are directly
        comparable to ``TaskTimers.seconds`` (the trace-vs-timer
        agreement the acceptance test checks).
        """
        return self.totals_by_name(cat="task")

    def span_summary(self) -> list[dict]:
        """Per-name aggregate rows: count, total and mean seconds."""
        counts: dict[tuple[str, str], int] = {}
        totals: dict[tuple[str, str], float] = {}
        for record in self.records():
            key = (record.name, record.cat)
            counts[key] = counts.get(key, 0) + 1
            totals[key] = totals.get(key, 0.0) + record.duration
        rows = [
            {
                "name": name,
                "cat": cat,
                "count": counts[name, cat],
                "total_s": totals[name, cat],
                "mean_s": totals[name, cat] / counts[name, cat],
            }
            for (name, cat) in counts
        ]
        rows.sort(key=lambda row: -row["total_s"])
        return rows

    # ------------------------------------------------------------------
    # Stack reconstruction / flame report
    # ------------------------------------------------------------------
    def collapsed_stacks(self) -> dict[str, float]:
        """Total seconds per semicolon-joined span stack.

        Stacks are reconstructed per thread/rank from start/end nesting
        (the classic flamegraph "collapsed" keying).  After a ring
        wraparound dropped parents make their orphaned children appear
        as roots — a best-effort view, flagged by :attr:`n_dropped`.
        """
        out: dict[str, float] = {}
        per_tid: dict[int, list[SpanRecord]] = {}
        for record in self.records():
            per_tid.setdefault(record.tid, []).append(record)
        for spans in per_tid.values():
            spans.sort(key=lambda r: (r.start, -r.end))
            stack: list[SpanRecord] = []
            for record in spans:
                while stack and stack[-1].end <= record.start:
                    stack.pop()
                path = ";".join([s.name for s in stack] + [record.name])
                out[path] = out.get(path, 0.0) + record.duration
                stack.append(record)
        return out

    def flame_report(self, *, limit: int = 30) -> str:
        """Flamegraph-style text rendering of the collapsed stacks."""
        stacks = self.collapsed_stacks()
        if not stacks:
            return "flame: no spans recorded"
        total = max(
            (t for path, t in stacks.items() if ";" not in path),
            default=max(stacks.values()),
        )
        lines = ["flame (span-stack totals):"]
        ranked = sorted(stacks.items(), key=lambda kv: (kv[0].count(";"), -kv[1]))
        for path, seconds in ranked[:limit]:
            share = 100.0 * seconds / total if total > 0 else 0.0
            indent = "  " * path.count(";")
            leaf = path.rsplit(";", 1)[-1]
            lines.append(f"  {indent}{leaf:<28s} {seconds * 1e3:10.3f} ms {share:5.1f}%")
        if len(ranked) > limit:
            lines.append(f"  ... {len(ranked) - limit} more stacks")
        if self.n_dropped:
            lines.append(f"  (ring dropped {self.n_dropped} oldest spans)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def to_chrome_trace(
        self,
        *,
        pid: int = 0,
        process_name: str = "repro",
        tid_names: dict[int, str] | None = None,
    ) -> dict:
        """The recorded spans as a Chrome trace-event JSON object.

        Complete ("X") events with microsecond timestamps relative to the
        earliest retained span; load the file in ``chrome://tracing`` or
        https://ui.perfetto.dev.
        """
        records = self.records()
        epoch = min((r.start for r in records), default=0.0)
        events: list[dict] = [
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": process_name},
            }
        ]
        for tid, label in sorted((tid_names or {}).items()):
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": label},
                }
            )
        for record in records:
            events.append(
                {
                    "name": record.name,
                    "cat": record.cat or "span",
                    "ph": "X",
                    "ts": (record.start - epoch) * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": pid,
                    "tid": record.tid,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path, **kwargs) -> Path:
        """Serialize :meth:`to_chrome_trace` to ``path``; returns it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(**kwargs)) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer capacity={self.capacity} recorded={self.n_recorded}"
            f" dropped={self.n_dropped}>"
        )


def resolve_tracer(spec: "Tracer | NullTracer | bool | None" = None):
    """Resolve a tracer argument the way the engine's constructors do.

    * a tracer instance passes through unchanged;
    * ``True`` builds a fresh default-capacity :class:`Tracer`;
    * ``None``/``False`` hand back the shared :data:`NULL_TRACER`.

    Tracing is switched on by the caller that reads the spans, never by
    the environment: a tracer nobody exports only costs time.
    """
    if isinstance(spec, (Tracer, NullTracer)):
        return spec
    if spec is True:
        return Tracer()
    return NULL_TRACER
