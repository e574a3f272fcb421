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
    a one-time warning (see :func:`backend_diagnostics` for the reason).

Selection order: an explicit ``Simulation(backend=...)`` argument wins,
then the ``REPRO_KERNEL_BACKEND`` environment variable, then
:data:`DEFAULT_BACKEND`.  The meta-name ``auto`` (valid in both the
argument and the environment variable) resolves to ``compiled`` when a
native provider passes its smoke test and to ``numpy_fast`` otherwise —
the fastest backend the machine can actually run, without the silent
numpy default that benchmark records used to hide on compiled-capable
hosts.
"""

from __future__ import annotations

import os
import warnings

from repro.md.kernels.base import KernelBackend
from repro.md.kernels.compiled import (
    BackendUnavailableError,
    CompiledBackend,
    provider_info,
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
    "BACKEND_ENV_VAR",
    "resolve_auto_backend",
    "available_backends",
    "backend_diagnostics",
    "get_backend",
    "backend_spec",
    "resolved_backend",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Backend used when neither an argument nor the env var selects one.
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
    with a one-time warning.  :func:`backend_diagnostics` reports which
    names are degraded and why.
    """
    return tuple(_REGISTRY)


def backend_diagnostics() -> dict[str, str]:
    """Per-backend availability: ``"ok"`` or why it would fall back.

    Probing an optional backend may do real work on first call (invoke
    the C compiler), so this is meant for CLIs, benchmarks and error
    paths — not per-step code.
    """
    diagnostics = {}
    for name, cls in _REGISTRY.items():
        probe = getattr(cls, "diagnostic", None)
        diagnostics[name] = probe() if probe is not None else "ok"
    return diagnostics


def resolve_auto_backend() -> str:
    """The registry name ``auto`` stands for on this machine.

    ``compiled`` when the native provider builds and passes its smoke
    test, else :data:`DEFAULT_BACKEND`.  The probe may do real work on
    first call (invoke the C compiler); the result is cached by the
    provider layer, so later calls are cheap.
    """
    from repro.md.kernels.compiled import compiled_available

    return "compiled" if compiled_available() else DEFAULT_BACKEND


def get_backend(spec: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve ``spec`` into a live :class:`KernelBackend` instance.

    ``None`` falls back to ``$REPRO_KERNEL_BACKEND`` and then to
    :data:`DEFAULT_BACKEND`; ``"auto"`` resolves via
    :func:`resolve_auto_backend`; any other string is looked up in the
    registry; an existing backend instance passes through unchanged (so
    a Simulation can share one scratch-carrying backend across its
    potentials).

    Requesting an optional backend whose runtime support is missing
    (e.g. ``compiled`` without a C compiler) returns the
    default backend and warns once per process with the reason, so an
    exported ``REPRO_KERNEL_BACKEND=compiled`` can never break a run.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if spec == AUTO_BACKEND:
        spec = resolve_auto_backend()
    try:
        cls = _REGISTRY[spec]
    except KeyError:
        degraded = "; ".join(
            f"{name}: {reason}"
            for name, reason in backend_diagnostics().items()
            if not reason.startswith("ok")
        )
        detail = f" (note: {degraded})" if degraded else ""
        raise ValueError(
            f"unknown kernel backend {spec!r}; available: "
            f"{available_backends()}{detail}"
        ) from None
    try:
        return cls()
    except BackendUnavailableError as exc:
        key = (spec, str(exc))
        if key not in _warned_fallbacks:
            _warned_fallbacks.add(key)
            warnings.warn(
                f"kernel backend {spec!r} is unavailable on this machine "
                f"({exc}); falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        return _REGISTRY[DEFAULT_BACKEND]()


def backend_spec(backend: KernelBackend) -> str:
    """Registry name of a live backend, for cross-process dispatch.

    Backend instances carry scratch buffers and (when tracing) a tracer
    reference, neither of which should travel to worker processes; the
    parallel engine ships this *name* instead and each worker resolves
    its own instance.  Wrappers that proxy a real backend (for example
    the observability ``TracingBackend``) are unwrapped via their
    ``inner`` attribute.
    """
    while getattr(type(backend), "name", None) not in _REGISTRY:
        nested = getattr(backend, "inner", None)
        if nested is None or nested is backend:
            raise ValueError(
                f"cannot derive a registry spec for backend {backend!r}"
            )
        backend = nested
    return type(backend).name


def resolved_backend(
    spec: str | KernelBackend | None = None,
) -> tuple[str, str | None]:
    """Registry name + native provider kind ``spec`` actually runs on.

    ``spec`` is a request (``None``/``"auto"``/a registry name, resolved
    exactly as :func:`get_backend` would, fallbacks included) or a live
    backend, so the pair names what will *execute*, not what was asked
    for.  The provider kind is ``None`` for every backend but
    ``compiled``.  This is the one identity cache keys, certification
    manifests and replay-environment checks agree on.
    """
    name = backend_spec(get_backend(spec))
    provider = None
    if name == CompiledBackend.name:
        info = provider_info()
        provider = info.get("kind") if info else None
    return name, provider
