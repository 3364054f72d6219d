"""Opt-in runtime shape contracts for kernel entry points.

The decorator :func:`shape_checked` attaches a shape spec (see
:mod:`repro.analysis.shapes`) to a function and — when checking is enabled —
validates every array argument and the return value against it, with symbol
bindings shared across the whole call::

    @shape_checked(
        visibilities="(G, M, C, a**2)",
        start="(G, M, 3)",
        step="(G, M, 3)",
        lmn="(N**2, 3)",
        taper="(N, N)",
        returns="(G, N, N, a, a)",
    )
    def gridder_bucket(visibilities, start, step, lmn, taper, ...): ...

Checking is off by default and the decorator is then a *zero-cost no-op*: it
only records the spec on ``fn.__shape_spec__`` (for tooling) and returns the
function unchanged, so production call paths pay nothing.  It is enabled by
setting ``IDGLINT_SHAPE_CHECKS=1`` in the environment *before* the kernel
modules are imported (the test suite does this in ``tests/conftest.py``), or
programmatically with :func:`enable_shape_checks` before importing.

``None`` arguments are skipped (optional A-terms), as are parameters without
a spec.  Violations raise :class:`ShapeContractError` naming the argument,
the offending shape, the spec, and the symbol bindings established so far.

The static rule IDG006 (:mod:`repro.analysis.rules.idg006_doc_shapes`)
cross-checks these specs against the numpydoc shapes in the docstring, so the
decorator, the docs, and the runtime check cannot drift apart silently.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, TypeVar

import numpy as np

from repro.analysis.shapes import format_alternatives, match_shape, parse_shape_spec

__all__ = [
    "ShapeContractError",
    "shape_checked",
    "shape_checks_enabled",
    "enable_shape_checks",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Programmatic override; ``None`` defers to the environment variable.
_forced: bool | None = None

_ENV_VAR = "IDGLINT_SHAPE_CHECKS"
_TRUTHY = ("1", "true", "yes", "on")


class ShapeContractError(ValueError):
    """An array argument or return value violates a declared shape contract."""


def enable_shape_checks(enabled: bool = True) -> None:
    """Force shape checking on (or off) for *subsequently imported* kernels.

    Decoration happens at import time, so call this before importing the
    modules you want checked; already-decorated functions are unaffected.
    """
    global _forced
    _forced = enabled


def shape_checks_enabled() -> bool:
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY


def shape_checked(*, returns: str | None = None, **param_specs: str) -> Callable[[F], F]:
    """Declare (and optionally enforce) array-shape contracts on a function.

    Keyword arguments map parameter names to shape specs; ``returns`` (if
    given) constrains the return value using the same symbol bindings.
    """
    parsed = {name: parse_shape_spec(spec) for name, spec in param_specs.items()}
    parsed_returns = parse_shape_spec(returns) if returns is not None else None

    def decorate(fn: F) -> F:
        spec_record = {"params": dict(param_specs), "returns": returns}
        signature = inspect.signature(fn)
        unknown = set(parsed) - set(signature.parameters)
        if unknown:
            raise TypeError(
                f"shape_checked({fn.__qualname__}): spec names not in signature: "
                f"{sorted(unknown)}"
            )
        fn.__shape_spec__ = spec_record  # type: ignore[attr-defined]
        if not shape_checks_enabled():
            return fn

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            env: dict[str, int] = {}
            for name, alternatives in parsed.items():
                if name not in bound.arguments:
                    continue
                value = bound.arguments[name]
                if value is None:
                    continue
                shape = np.shape(value)
                if not match_shape(shape, alternatives, env):
                    raise ShapeContractError(
                        f"{fn.__qualname__}: argument {name!r} has shape "
                        f"{tuple(shape)}, expected "
                        f"{format_alternatives(alternatives)}"
                        f"{_bindings(env)}"
                    )
            result = fn(*args, **kwargs)
            if parsed_returns is not None and result is not None:
                shape = np.shape(result)
                if not match_shape(shape, parsed_returns, env):
                    raise ShapeContractError(
                        f"{fn.__qualname__}: return value has shape "
                        f"{tuple(shape)}, expected "
                        f"{format_alternatives(parsed_returns)}"
                        f"{_bindings(env)}"
                    )
            return result

        wrapper.__shape_spec__ = spec_record  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def _bindings(env: dict[str, int]) -> str:
    if not env:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(env.items()))
    return f" (bound: {inner})"
