"""Whole-program rules R011-R012 (configs, threads).

Both are project rules over the :class:`~tools.reprolint.project.
ProjectModel`:

* **R011** — every ``*Config`` dataclass field must be consumed: read,
  outside the class's own methods, through a receiver *of that config
  class* (or an untyped receiver). A name-coincidence read on a
  different class does not mask a dead knob.
* **R012** — mutable state reachable from thread-pool worker callables
  must be written under a lock (``with <obj>.<lock>:``); the worker →
  callee closure is computed over the project call graph.
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


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class TypedConfigConsumptionRule(Rule):
    """R011 — config fields must be consumed via *their own* class."""

    rule_id = "R011"
    summary = "config fields consumed through typed receivers (cross-module)"
    rationale = (
        "A config field nobody reads is a silent no-op: experiments claim "
        "to vary a knob that does nothing, which corrupts A/B "
        "conclusions. Matching attribute NAMES is not enough — "
        "FooConfig.rate would look alive whenever any other class has a "
        ".rate — so receiver types are resolved through annotations and "
        "constructor calls across modules: only reads through the config's "
        "own class (or an untracked receiver) count, and a read inside the "
        "config's own methods (a __post_init__ validator) does not. "
        "Whitelist reflection-consumed fields with a suppression comment "
        "on the field line."
    )
    project_rule = True

    def check_project(
        self, ctxs: Sequence[FileContext], project: ProjectModel
    ) -> Iterator[Finding]:
        typed_reads: Set[Tuple[str, str]] = set()  # (class name, attr)
        untyped_read_names: Set[str] = set()

        for ctx in ctxs:
            module = project.by_path.get(ctx.path)
            if module is None:  # pragma: no cover - defensive
                continue
            for roots, local_types, owner in self._scopes(module, project):
                for root in roots:
                    for node in ast.walk(root):
                        if isinstance(node, ast.Attribute):
                            receiver = project.receiver_class(
                                node.value, module, local_types, owner
                            )
                            if receiver is None:
                                untyped_read_names.add(node.attr)
                            elif receiver is not owner:
                                # A class reading its own field (a
                                # __post_init__ validator) validates the
                                # knob; it does not consume it.
                                typed_reads.add((receiver.name, node.attr))
                        elif isinstance(node, ast.Call):
                            terminal = _terminal(node.func)
                            if (
                                terminal in {"getattr", "hasattr", "setattr"}
                                and len(node.args) >= 2
                            ):
                                arg = node.args[1]
                                if isinstance(arg, ast.Constant) and isinstance(
                                    arg.value, str
                                ):
                                    untyped_read_names.add(arg.value)

        for ctx in ctxs:
            module = project.by_path.get(ctx.path)
            if module is None:  # pragma: no cover - defensive
                continue
            for cls_info in module.classes.values():
                if not cls_info.name.endswith("Config"):
                    continue
                if not cls_info.is_dataclass:
                    continue
                for field_name, (field_node, _) in cls_info.fields.items():
                    if self._annotation_is_classvar(field_node):
                        continue
                    if (cls_info.name, field_name) in typed_reads:
                        continue
                    # An untyped read is still consumption — R011 only
                    # sharpens the cases where the receiver IS resolvable.
                    if field_name in untyped_read_names:
                        continue
                    yield self.finding(
                        ctx, field_node,
                        f"field '{field_name}' of {cls_info.name} is "
                        "never read through a receiver of its own type "
                        "(name-matching reads all resolve to other "
                        "classes); wire it up, delete it, or whitelist "
                        "with '# reprolint: disable=R011 -- <why>'",
                    )

    @staticmethod
    def _scopes(
        module: ModuleInfo, project: ProjectModel
    ) -> Iterator[
        Tuple[Sequence[ast.AST], Dict[str, ClassInfo], Optional[ClassInfo]]
    ]:
        """(root nodes, local types, owner) triples covering the module:
        top-level statements, then each function/method with its inferred
        locals (nested closures ride along with the enclosing scope)."""
        top_level = [
            statement
            for statement in module.ctx.tree.body
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        yield top_level, {}, None
        for fn in module.functions.values():
            yield [fn.node], project.infer_local_types(fn, None), None
        for cls_info in module.classes.values():
            for fn in cls_info.methods.values():
                yield (
                    [fn.node],
                    project.infer_local_types(fn, cls_info),
                    cls_info,
                )

    @staticmethod
    def _annotation_is_classvar(node: ast.AnnAssign) -> bool:
        annotation = node.annotation
        head = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        return getattr(head, "id", getattr(head, "attr", None)) == "ClassVar"


_MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "extend", "insert", "pop",
    "popleft", "remove", "discard", "clear", "setdefault", "offer",
    "offer_many", "push", "record_matches",
}
_LOCK_WORDS = ("lock", "mutex", "guard")


@register
class ThreadSafetyRule(Rule):
    """R012 — shared state written from worker threads must hold a lock."""

    rule_id = "R012"
    summary = "no unlocked writes to shared state in thread-reachable code"
    rationale = (
        "The real-thread executor exists to prove the engine's claim/merge "
        "protocol is a working concurrent algorithm. Any mutable state "
        "reachable from a worker callable (via the project call graph) "
        "that is written outside a 'with <lock>:' block is a data race "
        "the virtual-time executor can never exhibit — it only shows up "
        "as rare, irreproducible validation failures."
    )
    project_rule = True

    #: one work item: (scope node, module, owner class, spawn site,
    #: inherited local types — the enclosing scope's for closures)
    _Item = Tuple[
        ast.AST, ModuleInfo, Optional[ClassInfo], str, Dict[str, ClassInfo]
    ]

    def check_project(
        self, ctxs: Sequence[FileContext], project: ProjectModel
    ) -> Iterator[Finding]:
        # 1. Find worker entry points: f in pool.submit(f, ...),
        #    Thread(target=f), executor.map(f, xs). A nested worker
        #    closure inherits the spawning function's local types so its
        #    closed-over variables (shared state!) stay resolvable.
        entries: List[ThreadSafetyRule._Item] = []
        for ctx in ctxs:
            module = project.by_path.get(ctx.path)
            if module is None:  # pragma: no cover - defensive
                continue
            for fn, owner in self._all_functions(module):
                nested = {
                    child.name: child
                    for child in ast.walk(fn.node)
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child is not fn.node
                }
                local_types = project.infer_local_types(fn, owner)
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    worker = self._worker_ref(node)
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

        # 2. BFS the call graph from the entry points. Calls made while
        #    holding a lock are NOT followed: the callee runs under the
        #    caller's lock, so its writes are protected (single-lock
        #    discipline, which is what this codebase uses).
        reachable: List[ThreadSafetyRule._Item] = []
        seen: Set[int] = set()
        queue = list(entries)
        while queue:
            item = queue.pop()
            if id(item[0]) in seen:
                continue
            seen.add(id(item[0]))
            reachable.append(item)
            queue.extend(self._unlocked_callees(item, project))

        # 3. Flag unlocked writes to shared state in reachable scopes.
        emitted: Set[Tuple[str, int]] = set()
        for node, module, owner, spawn_site, _ in reachable:
            for finding in self._check_scope(node, module, spawn_site):
                key = (finding.path, finding.line)
                if key not in emitted:
                    emitted.add(key)
                    yield finding

    @staticmethod
    def _all_functions(
        module: ModuleInfo,
    ) -> Iterator[Tuple[FunctionInfo, Optional[ClassInfo]]]:
        for fn in module.functions.values():
            yield fn, None
        for cls_info in module.classes.values():
            for fn in cls_info.methods.values():
                yield fn, cls_info

    @staticmethod
    def _worker_ref(node: ast.Call) -> Optional[str]:
        """Name of the callable handed to a thread-spawning call."""
        terminal = _terminal(node.func)
        if terminal == "submit" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name):
                return first.id
        if terminal == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target" and isinstance(
                    keyword.value, ast.Name
                ):
                    return keyword.value.id
        if terminal == "map" and isinstance(node.func, ast.Attribute):
            base = _terminal(node.func.value)
            if base in {"pool", "executor"} and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    return first.id
        return None

    def _unlocked_callees(
        self, item: "ThreadSafetyRule._Item", project: ProjectModel
    ) -> List["ThreadSafetyRule._Item"]:
        """Project functions called from ``item``'s scope outside any
        ``with <lock>:`` block."""
        scope, module, owner, spawn_site, inherited = item
        info = self._info_for(scope, module, owner)
        local_types = dict(inherited)
        if info is not None:
            local_types.update(project.infer_local_types(info, owner))

        calls: List[ast.Call] = []

        def collect(node: ast.AST) -> None:
            if isinstance(node, ast.With) and any(
                self._is_lock(with_item.context_expr)
                for with_item in node.items
            ):
                return  # callee runs under the caller's lock: protected
            if isinstance(node, ast.Call):
                calls.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and child is not node:
                    continue
                collect(child)

        for statement in getattr(scope, "body", []):
            collect(statement)

        out: List[ThreadSafetyRule._Item] = []
        for node in calls:
            callee = project.resolve_call(module, node, local_types, owner)
            if callee is None and isinstance(node.func, ast.Name):
                callee = project.resolve_function(module, node.func.id)
            if callee is None:
                continue
            if not isinstance(callee.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # synthetic dataclass constructor
            callee_owner = None
            if callee.is_method:
                callee_owner = callee.module.classes.get(
                    callee.qualname.split(".")[0]
                )
            out.append(
                (callee.node, callee.module, callee_owner, spawn_site, {})
            )
        return out

    @staticmethod
    def _info_for(
        scope: ast.AST, module: ModuleInfo, owner: Optional[ClassInfo]
    ) -> Optional[FunctionInfo]:
        name = getattr(scope, "name", None)
        if name is None:
            return None
        if owner is not None and name in owner.methods:
            candidate = owner.methods[name]
            return candidate if candidate.node is scope else None
        candidate = module.functions.get(name)
        return candidate if candidate is not None and candidate.node is scope else None

    def _check_scope(
        self, scope: ast.AST, module: ModuleInfo, spawn_site: str
    ) -> Iterator[Finding]:
        ctx = module.ctx
        # Locals constructed in this scope: thread-local, never shared.
        fresh: Set[str] = set()
        nonlocals: Set[str] = set()
        body = getattr(scope, "body", [])
        args = getattr(scope, "args", None)
        params = set()
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                params.add(arg.arg)

        def is_shared(expr: ast.expr) -> Optional[str]:
            """A dotted description if ``expr`` names shared state."""
            if isinstance(expr, ast.Attribute):
                base = expr
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in fresh:
                    return None
                return ast.unparse(expr) if hasattr(ast, "unparse") else expr.attr
            if isinstance(expr, ast.Name):
                if expr.id in nonlocals:
                    return expr.id
                if expr.id not in fresh and expr.id not in params:
                    # A bare name that is neither a parameter nor created
                    # here is a closure/global; only flag mutations via
                    # methods (handled by the caller), not rebinding.
                    return None
            return None

        def walk(statements: Sequence[ast.stmt], locked: bool) -> Iterator[Finding]:
            for statement in statements:
                if isinstance(
                    statement,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(statement, ast.Nonlocal):
                    nonlocals.update(statement.names)
                    continue
                if isinstance(statement, ast.Global):
                    nonlocals.update(statement.names)
                    continue
                if isinstance(statement, ast.With):
                    inner_locked = locked or any(
                        self._is_lock(item.context_expr)
                        for item in statement.items
                    )
                    yield from walk(statement.body, inner_locked)
                    continue
                if isinstance(statement, (ast.For, ast.While)):
                    if isinstance(statement, ast.For) and isinstance(
                        statement.target, ast.Name
                    ):
                        fresh.add(statement.target.id)
                    yield from walk(statement.body, locked)
                    yield from walk(statement.orelse, locked)
                    continue
                if isinstance(statement, ast.If):
                    yield from walk(statement.body, locked)
                    yield from walk(statement.orelse, locked)
                    continue
                if isinstance(statement, ast.Try):
                    yield from walk(statement.body, locked)
                    for handler in statement.handlers:
                        yield from walk(handler.body, locked)
                    yield from walk(statement.orelse, locked)
                    yield from walk(statement.finalbody, locked)
                    continue
                if not locked:
                    yield from self._flag_writes(
                        statement, ctx, spawn_site, is_shared
                    )
                # Track freshly constructed locals AFTER checking writes.
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    fresh.add(statement.target.id)
                elif isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and isinstance(
                            statement.value,
                            (ast.Call, ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp,
                             ast.Constant, ast.Tuple, ast.BinOp),
                        ):
                            fresh.add(target.id)
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for element in target.elts:
                                if isinstance(element, ast.Name):
                                    fresh.add(element.id)

        yield from walk(body, False)

    @staticmethod
    def _is_lock(expr: ast.expr) -> bool:
        name = _terminal(expr)
        if name is None and isinstance(expr, ast.Call):
            name = _terminal(expr.func)
        if name is None:
            return False
        lowered = name.lower()
        return any(word in lowered for word in _LOCK_WORDS)

    def _flag_writes(
        self, statement: ast.stmt, ctx: FileContext, spawn_site: str, is_shared
    ) -> Iterator[Finding]:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            targets = [statement.target]
        for target in targets:
            write_target = target
            if isinstance(target, ast.Subscript):
                write_target = target.value
            if isinstance(write_target, (ast.Attribute, ast.Subscript)):
                shared = is_shared(
                    write_target.value
                    if isinstance(write_target, ast.Subscript)
                    else write_target
                )
                if shared is not None:
                    yield self.finding(
                        ctx, statement,
                        f"write to shared state '{shared}' without holding "
                        f"a lock in code reachable from a worker thread "
                        f"(spawned at {spawn_site}); wrap in "
                        "'with <obj>.lock:' or move out of the worker",
                    )
        # Mutating method calls on shared receivers.
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _MUTATOR_METHODS:
                continue
            receiver = node.func.value
            shared = is_shared(receiver)
            if shared is None and isinstance(receiver, ast.Name):
                continue
            if shared is not None:
                yield self.finding(
                    ctx, node,
                    f"mutating call '{shared}.{node.func.attr}(...)' without "
                    f"holding a lock in code reachable from a worker thread "
                    f"(spawned at {spawn_site}); wrap in 'with <obj>.lock:'",
                )
