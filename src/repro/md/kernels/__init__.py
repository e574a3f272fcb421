"""Pluggable force-kernel backends for the Pair-task hot loop.

The engine's inner loop — pair geometry, cutoff masking and force
scatter — is factored behind :class:`~repro.md.kernels.base.KernelBackend`
so that the same potentials run on interchangeable implementations:

``numpy_ref``
    The original ``np.add.at`` formulation, kept as the correctness
    oracle.
``numpy_fast``
    CSR-ordered pairs, ``np.bincount`` segmented accumulation and
    preallocated scratch buffers (the default).
``compiled``
    Native-code pair forces *and* neighbor-list builds from a
    ctypes-bound C library compiled on first use.  Optional: without a
    working C compiler, requesting it falls back to ``numpy_fast`` with
    a one-time warning (the returned backend's ``fallback`` says why).

Selection is by argument only — ``Simulation.set_backend(...)``,
``PairPotential.backend``, ``JobSpec.backend`` or a CLI ``--backend``;
with none given a run takes :data:`DEFAULT_BACKEND`, and no environment
variable changes the choice.  The meta-name ``auto`` resolves to
``compiled`` when a native provider passes its smoke test and to
``numpy_fast`` otherwise — the fastest backend the machine can
actually run, without the silent numpy default that benchmark records
used to hide on compiled-capable hosts.  :func:`get_backend` is the only code that applies these rules;
the instance it returns says what it answers — ``requested``,
``fallback`` and, on ``compiled``, the native ``provider`` — and every
record or CLI line reads those attributes instead of resolving again.
"""

from __future__ import annotations

import warnings

from repro.md.kernels.base import KernelBackend
from repro.md.kernels.compiled import (
    BackendUnavailableError,
    CompiledBackend,
    compiled_available,
    resolve_provider,
)
from repro.md.kernels.numpy_fast import NumpyFastBackend
from repro.md.kernels.numpy_ref import NumpyRefBackend

__all__ = [
    "KernelBackend",
    "NumpyRefBackend",
    "NumpyFastBackend",
    "CompiledBackend",
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "AUTO_BACKEND",
    "resolve_auto_backend",
    "available_backends",
    "get_backend",
    "backend_spec",
    "resolved_backend",
]

#: Backend used when no argument selects one.
DEFAULT_BACKEND = "numpy_fast"

#: Meta-name resolving to the fastest backend this machine supports.
AUTO_BACKEND = "auto"

_REGISTRY: dict[str, type[KernelBackend]] = {
    NumpyRefBackend.name: NumpyRefBackend,
    NumpyFastBackend.name: NumpyFastBackend,
    CompiledBackend.name: CompiledBackend,
}

#: (name, reason) combinations already warned about, once per process.
_warned_fallbacks: set[tuple[str, str]] = set()


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`, in registry order.

    Every listed name is always *accepted*; optional backends that
    cannot run on this machine resolve to the :data:`DEFAULT_BACKEND`
    with a one-time warning, and the returned backend's ``fallback``
    says why.
    """
    return tuple(_REGISTRY)


def resolve_auto_backend() -> str:
    """The registry name ``auto`` stands for on this machine."""
    return get_backend(AUTO_BACKEND).name


def get_backend(spec: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve ``spec`` into a live :class:`KernelBackend` instance.

    The one resolver of a backend request.  ``None`` is
    :data:`DEFAULT_BACKEND`; ``"auto"`` is ``compiled`` when the native
    provider builds and passes its smoke test, else
    :data:`DEFAULT_BACKEND`; any other string is looked up in the
    registry; an existing backend instance passes through unchanged (so
    a Simulation can share one scratch-carrying backend across its
    potentials).

    Requesting an optional backend whose runtime support is missing
    (e.g. ``compiled`` without a C compiler) returns the default
    backend and warns once per process with the reason, so requesting
    ``compiled`` can never break a run.  The instance says what it
    answers: ``requested`` is the request after the ``None`` rule,
    ``fallback`` the reason when the named backend could not be built
    (``auto`` never falls back).
    """
    if isinstance(spec, KernelBackend):
        return spec
    requested = spec if spec is not None else DEFAULT_BACKEND
    name = requested
    if requested == AUTO_BACKEND:
        name = CompiledBackend.name if compiled_available() else DEFAULT_BACKEND
    try:
        cls = _REGISTRY[name]
    except KeyError:
        reason = resolve_provider()[1]
        detail = f" (note: compiled: {reason})" if reason else ""
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{available_backends()}{detail}"
        ) from None
    fallback = None
    try:
        backend = cls()
    except BackendUnavailableError as exc:
        fallback = str(exc)
        if (name, fallback) not in _warned_fallbacks:
            _warned_fallbacks.add((name, fallback))
            warnings.warn(
                f"kernel backend {name!r} is unavailable on this machine "
                f"({fallback}); falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        backend = _REGISTRY[DEFAULT_BACKEND]()
    backend.requested = requested
    backend.fallback = fallback
    return backend


def backend_spec(backend: KernelBackend) -> str:
    """Registry name of a live backend, for cross-process dispatch.

    Backend instances carry scratch buffers that should not travel to
    worker processes; the parallel engine ships this *name* instead and
    each worker resolves its own instance.
    """
    name = getattr(type(backend), "name", None)
    if name not in _REGISTRY:
        raise ValueError(f"cannot derive a registry spec for backend {backend!r}")
    return name


def resolved_backend(
    spec: str | KernelBackend | None = None,
) -> tuple[str, str | None]:
    """Registry name + native provider kind ``spec`` actually runs on.

    ``spec`` is a request or a live backend, resolved by
    :func:`get_backend` (fallbacks included), so the pair names what
    will *execute*, not what was asked for.  This is the one identity
    cache keys, certification manifests and replay-environment checks
    agree on.
    """
    backend = get_backend(spec)
    return backend_spec(backend), backend.provider
