"""IDG102 — blocking call made while a lock is held.

Holding a lock across a blocking operation turns local contention into
pipeline-wide stalls (every thread that needs the lock queues behind the
sleeper) and is one half of most real deadlocks: the classic failure is a
producer thread blocking on a bounded ``queue.Queue.put`` while holding the
lock its consumer needs to drain the queue.  This rule flags, inside any ``with <lock>:``
region (or a ``# idglint: requires-lock`` function, whose whole body runs
locked):

* unbounded-wait methods whatever their arguments: ``put``/``wait``/
  ``sleep``/``recv``/``send`` and serialisation I/O (``dump``/``save``/...);
* methods that only block when called with no positional arguments —
  ``get()``/``acquire()``/``result()``/``join()``/``read()`` — so
  ``dict.get(k, d)`` and ``sep.join(parts)`` stay clean;
* blocking builtins (``open``).

``Condition.wait`` on the *held* condition is exempt — that is the one
blocking call designed to run under its own lock (it atomically releases
it).  Acquiring a *different* lock inside the region is IDG103's
lock-order-graph territory, not IDG102's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.concurrency import build_lock_model
from repro.analysis.engine import FileContext, Violation

CODE = "IDG102"
SUMMARY = "blocking call (queue/wait/result/file I/O) made while a lock is held"


def _dotted(expr: ast.AST) -> str | None:
    """``"self._cond"`` for simple name/attribute chains (else None)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return f"{base}.{expr.attr}" if base is not None else None
    return None


def _blocking_reason(
    node: ast.Call, config, held_exprs: set[str]
) -> str | None:
    """Why this call blocks, or None when it does not (or is exempt)."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in config.blocking_functions:
            return f"{func.id}() performs blocking I/O"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _dotted(func.value)
    if receiver is not None and receiver in held_exprs:
        # condition.wait()/notify on the held lock itself is the intended
        # pattern (wait atomically releases the lock while sleeping)
        return None
    name = func.attr
    if name in config.blocking_any_arg_methods:
        return f".{name}() may block indefinitely"
    if (
        name in config.blocking_zero_arg_methods
        and not node.args
        and not node.keywords  # acquire(blocking=False) etc. are bounded
    ):
        return f".{name}() may block indefinitely"
    return None


def check(ctx: FileContext) -> Iterator[Violation]:
    model = build_lock_model(ctx)
    config = ctx.config

    seen: set[int] = set()

    def scan(body: list[ast.stmt], held_exprs: set[str], lock_desc: str
             ) -> Iterator[Violation]:
        def visit(node: ast.AST) -> Iterator[Violation]:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return  # nested definitions run later, not under the lock
            if isinstance(node, ast.Call) and id(node) not in seen:
                reason = _blocking_reason(node, config, held_exprs)
                if reason is not None:
                    seen.add(id(node))
                    yield ctx.violation(
                        node,
                        CODE,
                        f"blocking call while holding {lock_desc}: "
                        f"{reason}; move it outside the locked region",
                    )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        for stmt in body:
            yield from visit(stmt)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            scope = model.enclosing_scope(node)
            lock_items = [
                item for item in node.items
                if model.looks_like_lock(item.context_expr, scope)
            ]
            if not lock_items:
                continue
            held = {
                d for item in lock_items
                if (d := _dotted(item.context_expr)) is not None
            }
            desc = ", ".join(sorted(held)) or "a lock"
            yield from scan(node.body, held, desc)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = model.scopes.get(node)
            if scope is None or not scope.requires:
                continue
            names = {key.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
                     for key in scope.requires}
            held = {f"self.{n}" for n in names} | names
            desc = ", ".join(sorted(names))
            yield from scan(node.body, held, f"{desc} (requires-lock)")
