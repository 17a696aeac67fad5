"""Thread-safe backend registry and the string-API lookup shim."""

from __future__ import annotations

import threading

import repro.obs as obs

from .base import Backend

_LOCK = threading.Lock()
#: Insertion-ordered: the first registered backend is the default /
#: reference lowering.
_REGISTRY: dict[str, Backend] = {}
_FALLBACKS = obs.counter(
    "repro_backend_fallback_total",
    "requests for an unavailable backend served by another tier",
)


class BackendUnavailableError(ValueError):
    """A registered backend cannot run in this environment.

    This is the registry's standard unavailable-backend error: every
    :meth:`Backend.require` implementation raises it (or a subclass) when
    a soft dependency is missing — cffi not importable, no C compiler on
    PATH — so callers can catch one exception type to degrade gracefully
    to another tier.
    """

    def __init__(self, backend: str, reason: str):
        super().__init__(f"backend {backend!r} is unavailable: {reason}")
        self.backend = backend
        self.reason = reason


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register a backend instance under its :attr:`Backend.name`.

    Registration makes the name valid everywhere a ``backend=`` string is
    accepted (``synthesize``, ``convert``, the planner, the CLI).
    """
    if not isinstance(backend, Backend):
        raise TypeError(f"expected a Backend instance, got {backend!r}")
    with _LOCK:
        if backend.name in _REGISTRY and not replace:
            raise ValueError(
                f"backend {backend.name!r} is already registered "
                "(pass replace=True to override)"
            )
        _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (mainly for tests)."""
    with _LOCK:
        _REGISTRY.pop(name, None)


def get_backend(backend: "str | Backend") -> Backend:
    """Resolve a backend name — or pass a :class:`Backend` through.

    This is the shim that keeps the legacy ``backend="python"|"numpy"``
    string API working: every call site resolves through here instead of
    comparing strings.
    """
    if isinstance(backend, Backend):
        return backend
    with _LOCK:
        found = _REGISTRY.get(backend)
    if found is None:
        raise ValueError(f"unknown lowering backend {backend!r}")
    return found


def available_backend(backend: "str | Backend") -> Backend:
    """Resolve ``backend``, degrading to the best available lowering.

    The requested backend is returned when its :meth:`Backend.require`
    passes.  Otherwise the remaining registered backends are probed from
    newest registration backwards (c → numpy → python), so a request for
    the compiled tier on a box without a toolchain degrades to the numpy
    tier, and to the reference scalar backend as the last resort.  Every
    degradation increments ``repro_backend_fallback_total{requested,
    effective}``; if nothing is available the requested backend's own
    :class:`BackendUnavailableError` propagates.
    """
    requested = get_backend(backend)
    try:
        requested.require()
        return requested
    except Exception:  # noqa: BLE001 - any require failure triggers fallback
        pass
    for candidate in reversed(all_backends()):
        if candidate.name == requested.name:
            continue
        try:
            candidate.require()
        except Exception:  # noqa: BLE001
            continue
        _FALLBACKS.inc(requested=requested.name, effective=candidate.name)
        return candidate
    requested.require()  # nothing available: surface the original error
    return requested


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    with _LOCK:
        return tuple(_REGISTRY)


def all_backends() -> tuple[Backend, ...]:
    """Registered backend instances, in registration order."""
    with _LOCK:
        return tuple(_REGISTRY.values())
