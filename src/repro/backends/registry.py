"""Backend registry: named kernel implementations, one dispatch point.

Backends register once at import time; everything else — the ``IDG`` facade,
the parallel and streaming executors and the CLI ``--backend`` flag —
resolves names through this module.
Keeping the mapping in one place is what lets a future kernel PR add a
faster backend without touching any executor: register it, and the
differential harness in ``tests/backends/`` holds it to the equivalence
contract automatically.
"""

from __future__ import annotations

from typing import Final

from repro.backends.base import KernelBackend

#: Backend used when the configuration names none.
DEFAULT_BACKEND: Final = "vectorized"

_REGISTRY: Final[dict[str, KernelBackend]] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register a backend instance under its ``name`` (idempotent per name).

    Re-registering a name replaces the previous instance — deliberate, so a
    test can swap in an instrumented double and restore the original.
    Returns the backend to allow use as a decorator-style one-liner.
    """
    if not backend.name or backend.name == KernelBackend.name:
        raise ValueError(f"backend {backend!r} must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Look up a registered backend by name.

    Raises ``KeyError`` with the available names — the CLI surfaces this
    message directly, so it must say what *would* have worked.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends()) or '(none registered)'}"
        ) from None


def resolve_backend(spec: str | KernelBackend | None) -> KernelBackend:
    """Resolve a backend specification to an instance.

    ``None`` is :data:`DEFAULT_BACKEND`; a string is looked up in the
    registry; a
    :class:`KernelBackend` instance passes through (it need not be
    registered — useful for experiments).
    """
    if isinstance(spec, KernelBackend):
        return spec
    return get_backend(DEFAULT_BACKEND if spec is None else spec)
