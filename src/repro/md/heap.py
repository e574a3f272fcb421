"""Keep freed step temporaries on the heap (glibc ``mallopt``).

Every force evaluation allocates and frees tens of MiB of per-pair
numpy temporaries.  glibc serves a request from ``mmap`` when it is
above its *mmap threshold* and hands the top of the heap back to the
kernel when more than its *trim threshold* is free there; both start
at 128 KiB and are then adjusted from the sizes the process happens to
free, so whether a step reuses warm memory or page-faults all of it in
again (28 MiB, ~7000 faults and 15–20 ms per step for 32k-atom EAM,
+35 % on the step) depends on what earlier code left behind — at the
parent of PR 12 on the discarded temporaries of the neighbor build's
sort, which is how removing that sort slowed a workload that never
rebuilds.  Fixing both thresholds removes the dependence: requests up
to glibc's 32 MiB ceiling come from the heap and the heap is trimmed
only above what a few steps at the suite's sizes free at once.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["keep_freed_heap"]

# <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's upper bound for M_MMAP_THRESHOLD on 64-bit (HEAP_MAX_SIZE / 2).
_MMAP_THRESHOLD = 32 << 20
#: Free heap kept before trimming: a 37k-atom EAM step frees ~90 MiB,
#: and with 128 MiB an LJ rebuild on top of a step still trimmed.
_TRIM_THRESHOLD = 256 << 20

_applied: bool | None = None


def keep_freed_heap() -> bool:
    """Apply the thresholds once per process; True if they took effect.

    A no-op where ``mallopt`` is missing (non-glibc platforms) and when
    the user already chose values through glibc's own
    ``MALLOC_TRIM_THRESHOLD_`` / ``MALLOC_MMAP_THRESHOLD_`` variables.
    """
    global _applied
    if _applied is None:
        _applied = _apply()
    return _applied


def _apply() -> bool:
    if {"MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"} & os.environ.keys():
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
