"""Floating-point precision modes and their pair-kernel cost factors.

Section 8 of the paper: LAMMPS usually computes pairwise forces in
single precision while accumulating in double ("mixed"); the INTEL
package flag (CPU) and a recompile (GPU) switch the *whole pairwise
computation* to single or double.  Only the Pair task is affected — the
paper's observation that the overall impact depends on the pair share
of the benchmark (LJ on GPU most sensitive, Rhodopsin on GPU barely)
then falls out of the task composition.
"""

from __future__ import annotations

from repro.md.precision import PRECISIONS, Precision, parse_precision

__all__ = [
    "Precision",
    "PRECISIONS",
    "precision_pair_factor",
    "gpu_precision_pair_factor",
]


# CPU: the Ice Lake AVX-512 units process twice as many floats as
# doubles per vector, but the pair kernel is partly memory/gather bound,
# so the observed penalty is well below 2x.  Per-benchmark double
# factors are calibrated to Section 8's quotes: LJ 115.2 -> 98.9 TS/s
# (total -14%, pair share ~0.7 => pair factor ~1.22) and rhodopsin
# 11.5 -> 8.4 TS/s (total -27%, pair share ~0.65 plus transcendental
# math that vectorizes worse in double => pair factor ~1.55).
_CPU_DOUBLE_FACTOR: dict[str, float] = {
    "lj": 1.22,
    "eam": 1.25,  # "EAM showing similar behavior to the LJ experiment"
    "chain": 2.2,  # "Chain behaving similarly to Rhodopsin"
    "chute": 1.30,
    "rhodo": 1.55,
}

# Mixed accumulates in double: a small overhead over pure single.
_CPU_MIXED_FACTOR = 1.04

# GPU: the V100 has a 1:2 FP64:FP32 throughput ratio, but pair kernels
# are partly bandwidth bound; calibrated to LJ-GPU 170.0 -> 121.6 TS/s
# (total -28% with pair-kernel share ~0.55 => factor ~1.9).
_GPU_DOUBLE_FACTOR: dict[str, float] = {
    "lj": 1.55,
    "eam": 1.55,
    "chain": 1.6,
    "rhodo": 1.7,
    "chute": 1.8,  # unused (no GPU support) but kept total
}
_GPU_MIXED_FACTOR = 1.06


def precision_pair_factor(benchmark: str, precision: Precision | str) -> float:
    """CPU pair-task slowdown factor relative to single precision."""
    precision = parse_precision(precision)
    if precision is Precision.SINGLE:
        return 1.0
    if precision is Precision.MIXED:
        return _CPU_MIXED_FACTOR
    try:
        return _CPU_DOUBLE_FACTOR[benchmark]
    except KeyError:
        raise KeyError(f"no CPU precision factors for benchmark {benchmark!r}") from None


def gpu_precision_pair_factor(benchmark: str, precision: Precision | str) -> float:
    """GPU pair-kernel slowdown factor relative to single precision."""
    precision = parse_precision(precision)
    if precision is Precision.SINGLE:
        return 1.0
    if precision is Precision.MIXED:
        return _GPU_MIXED_FACTOR
    try:
        return _GPU_DOUBLE_FACTOR[benchmark]
    except KeyError:
        raise KeyError(f"no GPU precision factors for benchmark {benchmark!r}") from None
