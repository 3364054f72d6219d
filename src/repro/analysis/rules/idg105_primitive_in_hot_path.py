"""IDG105 — threading primitive constructed in a hot loop or per-work-group
path.

Locks, conditions, events and threads are meant to be created once and
reused: constructing them per iteration churns allocations, defeats lock
identity (two iterations "synchronising" on different locks synchronise on
nothing), and ``threading.Thread`` per item costs ~100µs of spawn latency
each — the per-work-group paths this codebase batches precisely to avoid.
This rule flags construction of a ``threading`` primitive:

* inside a ``for``/``while`` loop (within the same function — a loop in an
  outer function does not make a nested function body hot), or
* anywhere in a function whose name marks it as a per-work-group hot path
  (``hot_path_markers`` in :class:`~repro.analysis.engine.LintConfig`).

Bounded startup loops (spawning a fixed pool of worker threads) are
legitimate — suppress those sites with ``# idglint: disable=IDG105`` and a
justification, as :meth:`GriddingService.start`'s worker start-up loop does.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Violation

CODE = "IDG105"
SUMMARY = "threading primitive constructed in a hot loop / per-work-group path"

#: ``threading.<name>`` constructors that should be hoisted out of hot paths.
_PRIMITIVES = frozenset(
    {
        "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
        "Event", "Barrier", "Thread", "Timer", "local",
    }
)


def _primitive_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "threading" and func.attr in _PRIMITIVES:
            return func.attr
    return None


def _enclosing_function(
    ctx: FileContext, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def check(ctx: FileContext) -> Iterator[Violation]:
    markers = ctx.config.hot_path_markers
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _primitive_name(node)
        if name is None:
            continue
        fn = _enclosing_function(ctx, node)
        in_loop = ctx.enclosing_loop(node) is not None
        hot_fn = fn is not None and any(m in fn.name for m in markers)
        if in_loop:
            yield ctx.violation(
                node,
                CODE,
                f"threading.{name}() constructed inside a loop; hoist it out "
                "(or suppress with a justification if the loop is bounded "
                "startup code)",
            )
        elif hot_fn:
            yield ctx.violation(
                node,
                CODE,
                f"threading.{name}() constructed in per-work-group hot path "
                f"{fn.name}(); create it once at setup and reuse it",
            )
