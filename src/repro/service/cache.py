"""Content-addressed result cache: bounded LRU memory + optional disk.

The cache maps a :meth:`JobSpec.cache_key` address to the stored
:class:`~repro.service.spec.JobResult`.  Two layers:

* **memory** — an LRU dict bounded by ``max_entries``; a hit refreshes
  recency, an insert past the bound evicts the least-recently-used
  entry (counted, never silent);
* **disk** (optional) — one ``<key>.json`` file per result under
  ``directory``, written atomically (temp file + ``os.replace``) so a
  crash mid-write can never serve a truncated record.  Disk hits are
  promoted back into memory.  This layer is what lets ``python -m
  repro serve`` answer resubmissions across service restarts, and what
  the spool transport serves result files from.

All operations are thread-safe; the service's scheduler, submitter
threads and the spool server share one instance.  When a
:class:`~repro.observability.metrics.MetricsRegistry` is attached,
hits/misses/evictions/insertions are counted under ``service_cache_*``.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

from repro.atomicio import atomic_write
from repro.service.spec import JobResult

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded, content-addressed store for job results.

    Parameters
    ----------
    max_entries:
        Memory-layer bound; the oldest (least recently used) entry is
        evicted when an insert would exceed it.  Must be >= 1.
    directory:
        Optional disk layer; ``None`` keeps the cache memory-only.
    metrics:
        Optional metrics registry for hit/miss/eviction counters.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        directory: str | Path | None = None,
        metrics=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self._entries: OrderedDict[str, JobResult] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge_size(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("service_cache_entries").set(len(self._entries))

    def path_for(self, key: str) -> Path | None:
        """Disk path of one address (None for memory-only caches)."""
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> JobResult | None:
        """Look an address up (memory first, then disk); None on miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("service_cache_hits_total")
                return result
        disk = self._read_disk(key)
        with self._lock:
            if disk is not None:
                self.hits += 1
                self._count("service_cache_hits_total")
                self._insert(key, disk)
                return disk
            self.misses += 1
            self._count("service_cache_misses_total")
            return None

    def put(self, key: str, result: JobResult) -> None:
        """Store one result under its address (memory + disk)."""
        path = self.path_for(key)
        if path is not None:
            # atomic: never a truncated record
            atomic_write(path, json.dumps(result.to_json(), indent=2) + "\n")
        with self._lock:
            self._insert(key, result)
            self._count("service_cache_insertions_total")

    def _insert(self, key: str, result: JobResult) -> None:
        """Lock held: LRU insert with bound enforcement."""
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("service_cache_evictions_total")
        self._gauge_size()

    def _read_disk(self, key: str) -> JobResult | None:
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            return JobResult.from_json(json.loads(path.read_text()))
        except (json.JSONDecodeError, TypeError, KeyError):
            return None  # partial/corrupt file: treat as a miss

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        path = self.path_for(key)
        return path is not None and path.exists()

    def keys(self) -> tuple[str, ...]:
        """Memory-resident addresses, LRU-oldest first."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "disk": None if self.directory is None else str(self.directory),
            }
