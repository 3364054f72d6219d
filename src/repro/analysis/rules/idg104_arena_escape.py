"""IDG104 — thread-arena buffer view escaping its owning scope.

:func:`repro.core.scratch.thread_arena` hands out *views* into a per-thread
bump allocator; ``ScratchArena.take``/``zeros`` likewise.  Those views are
only valid until the arena is released or reused — handing one to another
thread (or keeping it alive past the work item) is a use-after-recycle race
that numpy cannot detect.  This rule flags view expressions that escape:

* ``return`` of an arena view from a function that obtained the arena
  *itself* via ``thread_arena()`` — the caller may run on a different
  thread and has no way to know the buffer is borrowed.  Functions that
  accept an ``arena`` parameter are exempt for plain returns: the caller
  supplied the arena, so the caller owns the view's lifetime (that is the
  documented ``gridder_bucket`` contract).
* ``yield`` of an arena view — generators suspend arbitrarily long, so the
  view outlives any reasonable arena epoch regardless of who owns it.
* storing an arena view on ``self``/a module global — object attributes
  outlive the work item and are exactly the shared state other threads read.

A *view expression* is ``thread_arena().take(...)`` (or ``.zeros``), the
same methods on a name bound from ``thread_arena()`` or on an ``arena``
parameter, or a name bound from any of those.  Copies (``.copy()``,
``np.array(view)``) launder the view and are clean.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Violation

CODE = "IDG104"
SUMMARY = "scratch-arena view escapes its owning thread/scope"

#: Parameter names treated as caller-owned arenas.
_ARENA_PARAMS = ("arena",)


def _arena_call(node: ast.AST, factories: tuple[str, ...]) -> bool:
    """Is this ``thread_arena()`` / ``scratch.thread_arena()``?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in factories
    if isinstance(func, ast.Attribute):
        return func.attr in factories
    return False


def check(ctx: FileContext) -> Iterator[Violation]:
    config = ctx.config
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _check_function(ctx, fn, config)


def _check_function(
    ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef, config
) -> Iterator[Violation]:
    args = fn.args
    param_names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    arena_params = {p for p in _ARENA_PARAMS if p in param_names}
    # names bound (in this function, not nested defs) to an arena object
    arena_names: set[str] = set(arena_params)
    # names bound to a view into arena memory
    view_names: set[str] = set()

    def is_arena_expr(expr: ast.AST) -> bool:
        if _arena_call(expr, config.arena_factories):
            return True
        return isinstance(expr, ast.Name) and expr.id in arena_names

    def is_view_expr(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in config.arena_view_methods and is_arena_expr(
                expr.func.value
            ):
                return True
        return isinstance(expr, ast.Name) and expr.id in view_names

    # ---- two passes: first learn the bindings, then judge the escapes ----
    body_nodes: list[ast.AST] = []

    def collect(node: ast.AST) -> None:
        body_nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            collect(child)

    for stmt in fn.body:
        collect(stmt)

    changed = True
    while changed:  # fixpoint: view = thread_arena(); buf = view.take(...)
        changed = False
        for node in body_nodes:
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if is_arena_expr(node.value) and not set(names) <= arena_names:
                arena_names.update(names)
                changed = True
            elif is_view_expr(node.value) and not set(names) <= view_names:
                view_names.update(names)
                changed = True

    for node in body_nodes:
        if isinstance(node, ast.Return) and node.value is not None:
            if is_view_expr(node.value) and not arena_params:
                yield ctx.violation(
                    node,
                    CODE,
                    "returning a thread-arena view from a function that "
                    "obtained the arena itself; the caller cannot know the "
                    "buffer is borrowed — accept an `arena` parameter "
                    "(caller owns the lifetime) or return a copy",
                )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None and is_view_expr(value):
                yield ctx.violation(
                    node,
                    CODE,
                    "yielding a thread-arena view; the generator may be "
                    "resumed after the arena is recycled — yield a copy",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                stores_attr = isinstance(base, ast.Attribute)
                if stores_attr and is_view_expr(node.value):
                    yield ctx.violation(
                        node,
                        CODE,
                        "storing a thread-arena view on an object attribute; "
                        "attributes outlive the work item and may be read "
                        "from other threads — store a copy",
                    )
                    break
