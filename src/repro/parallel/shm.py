"""Shared-memory array management for the parallel engine.

The domain-decomposed executor keeps its bulk per-atom state —
positions, velocities, forces, per-atom energy/virial accumulators — in
POSIX shared memory (:mod:`multiprocessing.shared_memory`), so the
per-step exchange of it is plain array reads/writes, never pickling;
commands and replies travel on :mod:`repro.parallel.procs` pipes.

:class:`SharedArray` wraps one segment + numpy view; :class:`ShmArena`
manages a named collection with a picklable spec so worker processes
can attach to every array regardless of the start method (the ``fork``
context inherits the mappings, but attach-by-name also works under
``spawn``).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["SharedArray", "ShmArena"]


@dataclass(frozen=True)
class _ArraySpec:
    """Picklable recipe for attaching to one shared array."""

    name: str
    shape: tuple[int, ...]
    dtype: str


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without resource-tracker registration.

    On Python < 3.13 every attach registers the segment with the
    resource tracker, which unlinks it when *any* process exits — the
    classic cause of "leaked shared_memory" warnings and vanished
    buffers in worker pools.  Worse, under the ``fork`` start method the
    workers share the parent's tracker process, so unregistering *after*
    the fact would erase the creator's own registration.  Suppressing
    the register call during attach leaves exactly one record: the
    creator's, which owns cleanup.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


class SharedArray:
    """A numpy array backed by one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        shape: tuple[int, ...],
        dtype: np.dtype,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self.array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    @classmethod
    def create(cls, shape: tuple[int, ...], dtype) -> "SharedArray":
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        out = cls(shm, tuple(shape), dtype, owner=True)
        out.array[...] = np.zeros((), dtype=dtype)
        return out

    @classmethod
    def attach(cls, spec: _ArraySpec) -> "SharedArray":
        shm = _attach_untracked(spec.name)
        return cls(shm, spec.shape, np.dtype(spec.dtype), owner=False)

    @property
    def spec(self) -> _ArraySpec:
        return _ArraySpec(
            self._shm.name, tuple(self.array.shape), self.array.dtype.str
        )

    def close(self) -> None:
        """Drop this process's mapping (and unlink if it is the owner)."""
        # The numpy view holds a buffer reference; release it first or
        # SharedMemory.close() raises BufferError on some platforms.
        self.array = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering external view
            return
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class ShmArena:
    """A named collection of shared arrays with one picklable spec.

    The master builds the arena with :meth:`create`; each worker calls
    :meth:`attach` on the ``specs`` mapping received in its payload and
    gets the same named views.  Either side indexes arrays by name:
    ``arena["positions"]``.
    """

    def __init__(self, arrays: dict[str, SharedArray], *, owner: bool) -> None:
        self._arrays = arrays
        self._owner = owner

    @classmethod
    def create(cls, layout: dict[str, tuple[tuple[int, ...], object]]) -> "ShmArena":
        """Allocate zero-filled arrays: ``{name: (shape, dtype)}``."""
        arrays: dict[str, SharedArray] = {}
        try:
            for name, (shape, dtype) in layout.items():
                arrays[name] = SharedArray.create(shape, dtype)
        except Exception:
            for array in arrays.values():
                array.close()
            raise
        return cls(arrays, owner=True)

    @classmethod
    def attach(cls, specs: dict[str, _ArraySpec]) -> "ShmArena":
        arrays: dict[str, SharedArray] = {}
        try:
            for name, spec in specs.items():
                arrays[name] = SharedArray.attach(spec)
        except Exception:
            for array in arrays.values():
                array.close()
            raise
        return cls(arrays, owner=False)

    @property
    def specs(self) -> dict[str, _ArraySpec]:
        return {name: array.spec for name, array in self._arrays.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name].array

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def nbytes(self) -> int:
        """Total bytes across every shared segment (observability)."""
        return sum(array.array.nbytes for array in self._arrays.values())

    def close(self) -> None:
        for array in self._arrays.values():
            array.close()
        self._arrays = {}
