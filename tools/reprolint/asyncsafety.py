"""Async/blocking safety rule R015.

Three failure modes of mixing an asyncio front door with the existing
thread-pool engine, all caught statically:

* **Blocking calls in ``async def``** — ``time.sleep``, synchronous
  file/socket/subprocess I/O, and un-awaited unbounded
  ``Lock.acquire()`` stall the whole event loop, not one task. In a
  serving ISN every concurrent query pays the stall.
* **Unawaited coroutines** — calling an ``async def`` and discarding
  the result runs *nothing*: the coroutine object is garbage-collected
  un-executed, and the bug shows up only as missing side effects.
* **Async/thread shared-state races** — attribute state written both
  from async tasks and from ``engine/threads.py``-style worker threads
  (the R012 reachability walk) without a lock on either side. The GIL
  does not order plain read-modify-write across a thread-pool worker
  and an event-loop callback.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint.core import FileContext, Finding, Rule, register
from tools.reprolint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from tools.reprolint.wholeprogram import _LOCK_WORDS, ThreadSafetyRule

#: canonical dotted names (after import-alias resolution) that block
_BLOCKING_EXACT = {"time.sleep", "os.system", "os.wait", "select.select"}
#: canonical dotted prefixes that denote synchronous I/O machinery
_BLOCKING_PREFIXES = ("socket.", "subprocess.", "requests.", "urllib.")
#: builtins that block on the file system or a TTY
_BLOCKING_BUILTINS = {"open", "input"}
#: synchronous file-system methods (pathlib and friends)
_BLOCKING_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}
#: wrappers that legitimately consume a coroutine object
_COROUTINE_SINKS = {"create_task", "ensure_future", "gather", "run", "wait"}


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _canonical(func: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Dotted name of a call target with its first segment resolved
    through the module's import aliases (``from time import sleep`` →
    ``time.sleep``; ``import numpy as np`` → ``numpy``)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head = module.imports.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


def _is_lock_name(expr: ast.expr) -> bool:
    name = _terminal(expr)
    if name is None:
        return False
    lowered = name.lower()
    return any(word in lowered for word in _LOCK_WORDS)


def _scoped_functions(
    module: ModuleInfo,
) -> Iterator[Tuple[FunctionInfo, Optional[ClassInfo]]]:
    for fn in module.functions.values():
        yield fn, None
    for cls_info in module.classes.values():
        for fn in cls_info.methods.values():
            yield fn, cls_info


def _unlocked_attr_writes(
    scope: ast.AST,
) -> Iterator[Tuple[ast.stmt, str]]:
    """(statement, dotted description) for every attribute/subscript
    write in ``scope`` not under a ``with``/``async with`` lock block.
    Nested function definitions are skipped (separate scopes)."""

    def walk(statements: Sequence[ast.stmt]) -> Iterator[Tuple[ast.stmt, str]]:
        for statement in statements:
            if isinstance(
                statement,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                if any(
                    _is_lock_name(item.context_expr)
                    or (
                        isinstance(item.context_expr, ast.Call)
                        and _is_lock_name(item.context_expr.func)
                    )
                    for item in statement.items
                ):
                    continue  # protected: not an unlocked write
                yield from walk(statement.body)
                continue
            targets: List[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = list(statement.targets)
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                targets = [statement.target]
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Attribute):
                    try:
                        description = ast.unparse(base)
                    except Exception:  # pragma: no cover - defensive
                        description = base.attr
                    yield statement, description
            for attr in ("body", "orelse", "finalbody"):
                children = getattr(statement, attr, None)
                if children:
                    yield from walk(children)
            for handler in getattr(statement, "handlers", []) or []:
                yield from walk(handler.body)

    yield from walk(getattr(scope, "body", []))


@register
class AsyncSafetyRule(Rule):
    """R015 — async code must not block, leak coroutines, or race threads."""

    rule_id = "R015"
    summary = "no blocking calls, dropped coroutines, or async/thread races"
    rationale = (
        "The live-serving front door runs policies and dispatch on an "
        "event loop while chunk execution stays on worker threads. A "
        "blocking call in an async def stalls every in-flight query; a "
        "discarded coroutine silently runs nothing; attribute state "
        "written from both an async task and a thread worker without a "
        "lock is a data race the virtual-time tests cannot reproduce."
    )
    project_rule = True

    def check_project(
        self, ctxs: Sequence[FileContext], project: ProjectModel
    ) -> Iterator[Finding]:
        async_writes: Dict[Tuple[str, str], List[Tuple[FileContext, ast.stmt]]]
        async_writes = {}
        for ctx in ctxs:
            module = project.by_path.get(ctx.path)
            if module is None:  # pragma: no cover - defensive
                continue
            for fn, owner in _scoped_functions(module):
                node = fn.node
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield from self._check_unawaited(ctx, module, fn, owner, project)
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_blocking(ctx, module, fn)
                    for statement, description in _unlocked_attr_writes(node):
                        async_writes.setdefault(
                            (module.name, description), []
                        ).append((ctx, statement))
        if async_writes:
            yield from self._check_cross_races(ctxs, project, async_writes)

    # ------------------------------------------------------------------
    # Blocking calls inside async def
    # ------------------------------------------------------------------

    def _check_blocking(
        self, ctx: FileContext, module: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        awaited: Set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef,)) and node is not fn.node:
                continue
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            func = node.func
            canonical = _canonical(func, module)
            if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
                yield self.finding(
                    ctx, node,
                    f"blocking builtin {func.id}() inside 'async def "
                    f"{fn.name}' stalls the event loop; use "
                    "run_in_executor or an async API",
                )
                continue
            if canonical is not None and (
                canonical in _BLOCKING_EXACT
                or canonical.startswith(_BLOCKING_PREFIXES)
            ):
                yield self.finding(
                    ctx, node,
                    f"blocking call {canonical}() inside 'async def "
                    f"{fn.name}' stalls the event loop for every "
                    "in-flight query; await asyncio.sleep / an async "
                    "client, or push it to run_in_executor",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    ctx, node,
                    f"synchronous file I/O .{func.attr}() inside 'async "
                    f"def {fn.name}'; push it to run_in_executor",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "acquire"
                and _is_lock_name(func.value)
                and not self._bounded_acquire(node)
            ):
                yield self.finding(
                    ctx, node,
                    f"unbounded {_terminal(func.value)}.acquire() inside "
                    f"'async def {fn.name}' can deadlock the event loop; "
                    "use an asyncio.Lock (await lock.acquire()) or pass "
                    "blocking=False/timeout",
                )

    @staticmethod
    def _bounded_acquire(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg in {"blocking", "timeout"}:
                return True
        return bool(node.args)  # positional blocking/timeout argument

    # ------------------------------------------------------------------
    # Unawaited coroutines
    # ------------------------------------------------------------------

    def _check_unawaited(
        self,
        ctx: FileContext,
        module: ModuleInfo,
        fn: FunctionInfo,
        owner: Optional[ClassInfo],
        project: ProjectModel,
    ) -> Iterator[Finding]:
        local_types = project.infer_local_types(fn, owner)
        for statement in ast.walk(fn.node):
            if not isinstance(statement, ast.Expr):
                continue
            call = statement.value
            if not isinstance(call, ast.Call):
                continue
            terminal = _terminal(call.func)
            if terminal in _COROUTINE_SINKS:
                continue
            callee = project.resolve_call(module, call, local_types, owner)
            if callee is None or not isinstance(
                callee.node, ast.AsyncFunctionDef
            ):
                continue
            yield self.finding(
                ctx, statement,
                f"coroutine '{callee.qualname}()' is called but never "
                "awaited — the body never runs; await it or wrap it in "
                "asyncio.create_task(...)",
            )

    # ------------------------------------------------------------------
    # Async/thread shared-state races
    # ------------------------------------------------------------------

    def _check_cross_races(
        self,
        ctxs: Sequence[FileContext],
        project: ProjectModel,
        async_writes: Dict[Tuple[str, str], List[Tuple[FileContext, ast.stmt]]],
    ) -> Iterator[Finding]:
        """Intersect unlocked attribute writes in async defs with writes
        in thread-worker-reachable scopes (R012's reachability walk)."""
        walker = ThreadSafetyRule()
        entries: List[ThreadSafetyRule._Item] = []
        for ctx in ctxs:
            module = project.by_path.get(ctx.path)
            if module is None:  # pragma: no cover - defensive
                continue
            for fn, owner in _scoped_functions(module):
                if not isinstance(
                    fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                local_types = project.infer_local_types(fn, owner)
                nested = {
                    child.name: child
                    for child in ast.walk(fn.node)
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and child is not fn.node
                }
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    worker = walker._worker_ref(node)
                    if worker is None:
                        continue
                    spawn_site = f"{ctx.path}:{node.lineno}"
                    if worker in nested:
                        entries.append(
                            (nested[worker], module, owner, spawn_site, local_types)
                        )
                        continue
                    resolved = project.resolve_function(module, worker)
                    if resolved is not None:
                        entries.append(
                            (resolved.node, resolved.module, None, spawn_site, {})
                        )

        thread_writes: Dict[Tuple[str, str], str] = {}
        seen: Set[int] = set()
        queue = list(entries)
        while queue:
            item = queue.pop()
            scope, module, _owner, spawn_site, _inherited = item
            if id(scope) in seen:
                continue
            seen.add(id(scope))
            for _statement, description in _unlocked_attr_writes(scope):
                thread_writes.setdefault(
                    (module.name, description), spawn_site
                )
            queue.extend(walker._unlocked_callees(item, project))

        emitted: Set[Tuple[str, int]] = set()
        for key, sites in sorted(async_writes.items()):
            spawn_site = thread_writes.get(key)
            if spawn_site is None:
                continue
            _module_name, description = key
            for ctx, statement in sites:
                mark = (ctx.path, statement.lineno)
                if mark in emitted:
                    continue
                emitted.add(mark)
                yield self.finding(
                    ctx, statement,
                    f"'{description}' is written from an async task here "
                    f"AND from a thread worker (spawned at {spawn_site}) "
                    "with no lock on either side; protect both writes "
                    "with one lock or confine the state to one domain",
                )
