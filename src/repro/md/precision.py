"""Precision policy for the functional engine (paper §8, Figs. 15-16).

The paper's precision sensitivity study runs each benchmark in single,
mixed and double floating-point modes.  :class:`PrecisionPolicy` carries
that choice through the real engine as three dtypes:

``storage_dtype``
    The dtype of the master per-atom state (positions, velocities,
    forces) and of the shared-memory exchange buffers in the parallel
    engine.  SINGLE stores float32 (halving shm/halo bytes); MIXED and
    DOUBLE keep float64 master state.
``compute_dtype``
    The dtype the pair/bonded/k-space kernels evaluate in.  SINGLE and
    MIXED compute in float32; DOUBLE in float64.
``accumulate_dtype``
    The dtype per-atom force/energy accumulation happens in.  MIXED
    accumulates float32 pair terms into float64 totals — the classic
    GPU-package compromise (Trott et al.) that recovers most of
    single's speed at near-double accuracy.  SINGLE accumulates in
    float32, DOUBLE in float64.

The user-facing vocabulary is the :class:`Precision` enum defined here
— the one list of the three mode names; the modeled layer
(:mod:`repro.model.precision`), the report validator and the CLI
all take theirs from it.  ``numpy_ref`` stays a
pure float64 oracle regardless of policy; per-mode oracle tolerances
(:attr:`PrecisionPolicy.force_rtol`) say how closely a mode's
``numpy_fast`` forces must track that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Precision",
    "PRECISIONS",
    "PrecisionPolicy",
    "parse_precision",
    "policy_for",
    "DOUBLE_POLICY",
    "PARITY_TOLERANCES",
]


class Precision(str, Enum):
    """Arithmetic precision of the pairwise non-bonded computation."""

    SINGLE = "single"
    MIXED = "mixed"
    DOUBLE = "double"


PRECISIONS: tuple[Precision, ...] = tuple(Precision)

#: Max |Δ| allowed when comparing *trajectories* produced under
#: different execution modes (backend, provider, serial-vs-parallel) at
#: the same precision — the cross-mode tiers the checkpoint CLI and
#: ``repro certify`` both apply.  Same-mode replay needs no tolerance:
#: it is bitwise by contract.
PARITY_TOLERANCES: dict[str, float] = {
    "double": 1e-10,
    "mixed": 1e-3,
    "single": 1e-2,
}


def parse_precision(spec: "Precision | str | None") -> Precision:
    """Resolve a precision spec into a :class:`Precision` member.

    Accepts a :class:`Precision`, a case-insensitive mode name
    (``"single"`` / ``"MIXED"`` / ``"Double"``), or ``None`` for the
    float64 default.  Unknown names raise ``ValueError`` listing the
    valid modes.
    """
    if spec is None:
        return Precision.DOUBLE
    if isinstance(spec, Precision):
        return spec
    if isinstance(spec, str):
        try:
            return Precision(spec.strip().lower())
        except ValueError:
            valid = ", ".join(repr(p.value) for p in PRECISIONS)
            raise ValueError(
                f"unknown precision mode {spec!r}; valid modes are {valid} "
                "(case-insensitive)"
            ) from None
    raise TypeError(
        f"precision must be a Precision, str, or None, not {type(spec).__name__}"
    )


@dataclass(frozen=True)
class PrecisionPolicy:
    """The dtype triple (plus oracle tolerance) one mode implies."""

    mode: Precision
    storage_dtype: np.dtype
    compute_dtype: np.dtype
    accumulate_dtype: np.dtype
    #: RMS relative force error allowed vs the float64 ``numpy_ref``
    #: oracle on an identical configuration.
    force_rtol: float

    @property
    def is_double(self) -> bool:
        """True when every stage runs float64 (the historical behavior)."""
        return (
            self.storage_dtype == np.float64
            and self.compute_dtype == np.float64
            and self.accumulate_dtype == np.float64
        )

    @classmethod
    def from_spec(cls, spec: "Precision | str | PrecisionPolicy | None") -> "PrecisionPolicy":
        """Resolve any accepted precision spec into a policy."""
        if isinstance(spec, PrecisionPolicy):
            return spec
        return _POLICIES[parse_precision(spec)]


_POLICIES: dict[Precision, PrecisionPolicy] = {
    Precision.SINGLE: PrecisionPolicy(
        mode=Precision.SINGLE,
        storage_dtype=np.dtype(np.float32),
        compute_dtype=np.dtype(np.float32),
        accumulate_dtype=np.dtype(np.float32),
        force_rtol=1e-4,
    ),
    Precision.MIXED: PrecisionPolicy(
        mode=Precision.MIXED,
        storage_dtype=np.dtype(np.float64),
        compute_dtype=np.dtype(np.float32),
        accumulate_dtype=np.dtype(np.float64),
        force_rtol=1e-5,
    ),
    Precision.DOUBLE: PrecisionPolicy(
        mode=Precision.DOUBLE,
        storage_dtype=np.dtype(np.float64),
        compute_dtype=np.dtype(np.float64),
        accumulate_dtype=np.dtype(np.float64),
        force_rtol=1e-12,
    ),
}


def policy_for(spec: "Precision | str | PrecisionPolicy | None") -> PrecisionPolicy:
    """Shorthand for :meth:`PrecisionPolicy.from_spec`."""
    return PrecisionPolicy.from_spec(spec)


#: The float64-everywhere default every layer assumes when no policy is
#: given — bitwise-identical to the engine before precision modes.
DOUBLE_POLICY = _POLICIES[Precision.DOUBLE]
