"""Whole-program project model for cross-module analyses.

The R001-R008 rules each look at one file. The analyses on top of this
module — typed config-field consumption (R011), thread-safety (R012),
layering and kernel purity (R014, R017) — all need to see the program,
not a file: a worker closure in ``engine/threads.py`` reaches the
shared-counter writes in ``engine/scan.py`` through one call.

The model is deliberately syntactic (no imports are executed):

* **module graph** — every :class:`~tools.reprolint.core.FileContext`
  becomes a :class:`ModuleInfo` with a dotted module name derived from
  its path (``src/repro/sim/engine.py`` → ``repro.sim.engine``); the
  import table maps local aliases to the dotted names they refer to.
* **symbol table** — top-level functions and classes (with methods and
  annotated fields).
* **call resolution** — :meth:`ProjectModel.resolve_call` resolves a
  call expression to the :class:`FunctionInfo` it invokes, following
  ``from m import f`` aliases, ``mod.f`` attribute calls, ``self.m()``
  within a class, ``ClassName(...)`` constructors (synthesizing
  dataclass ``__init__`` parameters from field annotations), and
  ``var.m()`` when ``var``'s class is known from a local annotation or
  a visible constructor call.

Resolution is best-effort and sound-by-omission: an unresolvable call
returns ``None`` and the rules stay silent about it, so dynamic code
never produces false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from tools.reprolint.core import FileContext

#: Path components that root a dotted module name. ``src`` is a
#: conventional layout root (stripped); ``tools``/``tests`` are
#: themselves package roots and kept.
_LAYOUT_ROOTS = {"src"}


def module_name_for_path(parts: Sequence[str]) -> str:
    """Derive a dotted module name from path components.

    >>> module_name_for_path(("src", "repro", "sim", "engine.py"))
    'repro.sim.engine'
    >>> module_name_for_path(("tools", "reprolint", "core.py"))
    'tools.reprolint.core'
    >>> module_name_for_path(("pkg", "__init__.py"))
    'pkg'
    """
    components = list(parts)
    for root in _LAYOUT_ROOTS:
        if root in components:
            components = components[components.index(root) + 1 :]
            break
    if components and components[-1].endswith(".py"):
        components[-1] = components[-1][: -len(".py")]
    if components and components[-1] == "__init__":
        components = components[:-1]
    return ".".join(components) if components else "<root>"


@dataclass
class FunctionInfo:
    """One function or method and its parameters."""

    name: str
    qualname: str  # "f" or "Class.f"
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    params: List[ast.arg]  # positional+kwonly, self/cls already dropped
    is_method: bool


@dataclass
class ClassInfo:
    """A top-level class: methods and annotated (dataclass-style) fields."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: field name -> (AnnAssign node, annotation expression)
    fields: Dict[str, Tuple[ast.AnnAssign, ast.expr]] = field(default_factory=dict)
    #: instance attribute -> class name, recovered from ``__init__``
    #: bodies (``self.x = param`` with an annotated param, or
    #: ``self.x = ClassName(...)``) and dataclass field annotations.
    attr_class_names: Dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False

    def constructor(self) -> Optional[FunctionInfo]:
        """``__init__`` if defined, else a synthetic one for dataclasses
        (parameter order = field declaration order, as the decorator
        generates)."""
        explicit = self.methods.get("__init__")
        if explicit is not None:
            return explicit
        if not self.is_dataclass:
            return None
        params = []
        for field_name, (node, annotation) in self.fields.items():
            arg = ast.arg(arg=field_name, annotation=annotation)
            ast.copy_location(arg, node)
            params.append(arg)
        return FunctionInfo(
            name="__init__",
            qualname=f"{self.name}.__init__",
            module=self.module,
            node=self.node,
            params=params,
            is_method=True,
        )


@dataclass
class ModuleInfo:
    """One parsed module in the project."""

    name: str
    ctx: FileContext
    #: local alias -> dotted target ("np" -> "numpy";
    #: "PoissonArrivals" -> "repro.sim.arrivals.PoissonArrivals")
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _function_info(
    node: ast.AST, module: ModuleInfo, owner: Optional[str]
) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if owner is not None and positional:
        decorators = {
            (d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list
        }
        names = {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}
        if "staticmethod" not in names:
            positional = positional[1:]  # drop self / cls
    return FunctionInfo(
        name=node.name,
        qualname=f"{owner}.{node.name}" if owner else node.name,
        module=module,
        node=node,
        params=positional + list(args.kwonlyargs),
        is_method=owner is not None,
    )


class ProjectModel:
    """Module graph + symbol table + call resolution over a file set."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.by_path: Dict[str, ModuleInfo] = {
            info.ctx.path: info for info in modules.values()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, ctxs: Sequence[FileContext]) -> "ProjectModel":
        modules: Dict[str, ModuleInfo] = {}
        for ctx in ctxs:
            info = ModuleInfo(name=module_name_for_path(ctx.parts), ctx=ctx)
            cls._index_module(info)
            modules[info.name] = info
        return cls(modules)

    @staticmethod
    def _index_module(info: ModuleInfo) -> None:
        for node in info.ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are rare here; skip
                for alias in node.names:
                    local = alias.asname or alias.name
                    info.imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = _function_info(node, info, None)
            elif isinstance(node, ast.ClassDef):
                cls_info = ClassInfo(
                    name=node.name,
                    module=info,
                    node=node,
                    is_dataclass=_is_dataclass_decorated(node),
                )
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls_info.methods[member.name] = _function_info(
                            member, info, node.name
                        )
                    elif isinstance(member, ast.AnnAssign) and isinstance(
                        member.target, ast.Name
                    ):
                        cls_info.fields[member.target.id] = (
                            member,
                            member.annotation,
                        )
                ProjectModel._index_attr_classes(cls_info)
                info.classes[node.name] = cls_info

    @staticmethod
    def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
        """The head identifier of a simple annotation expression."""
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.strip("'\"").rpartition(".")[2]
        if isinstance(node, ast.Subscript):
            head = node.value
            head_name = getattr(head, "id", getattr(head, "attr", None))
            if head_name in {"Optional", "Final", "Annotated", "ClassVar"}:
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return ProjectModel._annotation_name(
                    inner if isinstance(inner, ast.expr) else None
                )
            return None
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _index_attr_classes(cls_info: ClassInfo) -> None:
        for field_name, (_, annotation) in cls_info.fields.items():
            name = ProjectModel._annotation_name(annotation)
            if name is not None:
                cls_info.attr_class_names[field_name] = name
        init = cls_info.methods.get("__init__")
        if init is None:
            return
        param_annotations = {
            p.arg: ProjectModel._annotation_name(p.annotation)
            for p in init.params
            if p.annotation is not None
        }
        assert isinstance(init.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(init.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Name):
                name = param_annotations.get(value.id)
                if name is not None:
                    cls_info.attr_class_names.setdefault(target.attr, name)
            elif isinstance(value, ast.Call):
                callee = value.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else None
                )
                if name is not None:
                    cls_info.attr_class_names.setdefault(target.attr, name)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """Find a module by dotted name. Falls back to a unique *suffix*
        match so trees rooted somewhere unexpected (fixture copies under
        a tmp dir) still resolve their internal imports."""
        exact = self.modules.get(dotted)
        if exact is not None:
            return exact
        suffix = "." + dotted
        matches = [
            info for name, info in self.modules.items() if name.endswith(suffix)
        ]
        return matches[0] if len(matches) == 1 else None

    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        """Resolve a class name visible in ``module`` to its definition."""
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name)
        if target is None:
            return None
        owner, _, symbol = target.rpartition(".")
        owner_module = self.resolve_module(owner)
        if owner_module is not None:
            return owner_module.classes.get(symbol)
        return None

    def resolve_function(
        self, module: ModuleInfo, name: str
    ) -> Optional[FunctionInfo]:
        """Resolve a bare function name visible in ``module``."""
        if name in module.functions:
            return module.functions[name]
        target = module.imports.get(name)
        if target is None:
            return None
        owner, _, symbol = target.rpartition(".")
        owner_module = self.resolve_module(owner)
        if owner_module is not None:
            return owner_module.functions.get(symbol)
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        local_types: Optional[Dict[str, ClassInfo]] = None,
        current_class: Optional[ClassInfo] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve ``call.func`` to a project-defined function, if possible.

        ``local_types`` maps local variable names to resolved classes
        (see :func:`infer_local_types`); ``current_class`` enables
        ``self.method()`` resolution.
        """
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_function(module, func.id)
            if resolved is not None:
                return resolved
            cls_info = self.resolve_class(module, func.id)
            if cls_info is not None:
                return cls_info.constructor()
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
                # mod.f(...) via `import mod` / `from pkg import mod`
                target = module.imports.get(base)
                if target is not None:
                    owner_module = self.resolve_module(target)
                    if owner_module is not None:
                        if func.attr in owner_module.functions:
                            return owner_module.functions[func.attr]
                        cls_info = owner_module.classes.get(func.attr)
                        if cls_info is not None:
                            return cls_info.constructor()
            receiver = self.receiver_class(
                func.value, module, local_types, current_class
            )
            if receiver is not None:
                return receiver.methods.get(func.attr)
            return None
        return None

    def receiver_class(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        local_types: Optional[Dict[str, ClassInfo]] = None,
        current_class: Optional[ClassInfo] = None,
    ) -> Optional[ClassInfo]:
        """Resolve the class of a receiver expression: a typed local, a
        ``self`` attribute, or an attribute of either."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and current_class is not None:
                return current_class
            if local_types and expr.id in local_types:
                return local_types[expr.id]
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.receiver_class(
                expr.value, module, local_types, current_class
            )
            if owner is None:
                return None
            class_name = owner.attr_class_names.get(expr.attr)
            if class_name is None:
                return None
            return self.resolve_class(owner.module, class_name)
        return None

    # ------------------------------------------------------------------
    # Helpers for the rules
    # ------------------------------------------------------------------

    def infer_local_types(
        self,
        func: FunctionInfo,
        current_class: Optional[ClassInfo] = None,
    ) -> Dict[str, ClassInfo]:
        """Map local variable names to classes, from annotations and
        directly-visible ``x = ClassName(...)`` constructor calls."""
        module = func.module
        types: Dict[str, ClassInfo] = {}
        for arg in func.params:
            if arg.annotation is not None:
                resolved = self._annotation_class(module, arg.annotation)
                if resolved is not None:
                    types[arg.arg] = resolved
        if not isinstance(func.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Synthetic dataclass constructor: no body to scan.
            if current_class is not None:
                types.setdefault("self", current_class)
            return types
        for node in ast.walk(func.node):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                resolved = self._annotation_class(module, node.annotation)
                if resolved is not None:
                    types[node.target.id] = resolved
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                    callee = node.value.func
                    name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else None
                    )
                    if name is not None:
                        resolved = self.resolve_class(module, name)
                        if resolved is not None:
                            types[target.id] = resolved
        if current_class is not None:
            # Treat `self` as an instance of the enclosing class.
            types.setdefault("self", current_class)
        return types

    def _annotation_class(
        self, module: ModuleInfo, annotation: ast.expr
    ) -> Optional[ClassInfo]:
        """Resolve a simple annotation (``Foo``, ``m.Foo``, ``Optional[Foo]``,
        ``"Foo"``) to a project class."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            return self.resolve_class(module, annotation.value.strip("'\""))
        if isinstance(annotation, ast.Name):
            return self.resolve_class(module, annotation.id)
        if isinstance(annotation, ast.Attribute):
            return self.resolve_class(module, annotation.attr)
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = (
                head.id
                if isinstance(head, ast.Name)
                else head.attr
                if isinstance(head, ast.Attribute)
                else None
            )
            if head_name in {"Optional", "Final", "Annotated", "ClassVar"}:
                inner = annotation.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                if isinstance(inner, ast.expr):
                    return self._annotation_class(module, inner)
        return None

