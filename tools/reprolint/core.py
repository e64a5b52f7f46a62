"""Core machinery for reprolint: rule registry, suppression, file walking.

Rules are small classes registered with :func:`register`. Each parsed
file becomes a :class:`FileContext` (source, AST, suppression table,
path components); per-file rules yield :class:`Finding` objects from
``check(ctx)``, and project rules (the cross-file analyses R011-R017)
yield findings from ``check_project(ctxs, project)`` after every file
is parsed, where ``project`` is the
:class:`~tools.reprolint.project.ProjectModel` built once per run.

Suppression follows the ruff/flake8 ``noqa`` convention but with an
explicit justification slot::

    arrival_rng = np.random.default_rng()  # reprolint: disable=R001 -- why

A ``disable`` comment silences the listed rule ids (or ``all``) on its
own physical line; ``disable-file=R011`` anywhere in a file silences a
rule for the whole file (used to whitelist config fields consumed via
reflection).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.reprolint.project import ProjectModel

#: Directory names never descended into (fixture trees contain
#: deliberate violations; caches contain generated code).
DEFAULT_EXCLUDED_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
    "fixtures",
    "node_modules",
}

_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+?)(?:\s*--.*)?$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class Suppressions:
    """Per-line and per-file rule suppression parsed from comments."""

    def __init__(self, by_line: Dict[int, Set[str]], whole_file: Set[str]) -> None:
        self.by_line = by_line
        self.whole_file = whole_file

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        by_line: Dict[int, Set[str]] = {}
        whole_file: Set[str] = set()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _DISABLE_RE.search(tok.string)
                if not match:
                    continue
                kind, spec = match.group(1), match.group(2)
                rules = {part.strip().upper() for part in spec.split(",") if part.strip()}
                if kind == "disable-file":
                    whole_file |= rules
                else:
                    by_line.setdefault(tok.start[0], set()).update(rules)
        except tokenize.TokenError:  # pragma: no cover - malformed tail
            pass
        return cls(by_line, whole_file)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        if rule_id in self.whole_file or "ALL" in self.whole_file:
            return True
        on_line = self.by_line.get(line, ())
        return rule_id in on_line or "ALL" in on_line


@dataclass
class FileContext:
    """One parsed source file handed to the rules."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    parts: Tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=Suppressions.from_source(source),
            parts=PurePath(path).parts,
        )

    @property
    def filename(self) -> str:
        return self.parts[-1] if self.parts else self.path

    def in_dirs(self, names: Iterable[str]) -> bool:
        """True if any directory component of the path is in ``names``."""
        return any(part in names for part in self.parts[:-1])


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``summary`` / ``rationale`` and override
    either ``check`` (per-file) or ``check_project`` (cross-file; set
    ``project_rule = True``).
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""
    project_rule: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, ctxs: Sequence[FileContext], project: "ProjectModel"
    ) -> Iterator[Finding]:
        return iter(())

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Return the registry (importing the built-in rules on demand)."""
    # Imported for their side effect of registering rules.
    from tools.reprolint import layering as _layering  # noqa: F401
    from tools.reprolint import rules as _rules  # noqa: F401
    from tools.reprolint import wholeprogram as _wholeprogram  # noqa: F401

    return dict(_REGISTRY)


@dataclass
class LintResult:
    """Outcome of a lint run."""

    findings: List[Finding]
    files_scanned: int
    parse_errors: List[Finding] = field(default_factory=list)
    #: findings silenced by ``# reprolint: disable`` comments
    suppressed: List[Finding] = field(default_factory=list)
    #: rule ids that actually ran in this invocation
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    @property
    def all_findings(self) -> List[Finding]:
        return sorted(self.parse_errors + self.findings)

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.all_findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def suppressed_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.suppressed:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Rule]:
    registry = all_rules()
    selected = {s.upper() for s in select} if select else set(registry)
    ignored = {s.upper() for s in ignore} if ignore else set()
    unknown = (selected | ignored) - set(registry)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        registry[rule_id]()
        for rule_id in sorted(selected - ignored)
    ]


def iter_python_files(
    paths: Sequence[str], use_default_excludes: bool = True
) -> Iterator[Path]:
    """Yield .py files under ``paths`` (files are taken as given)."""
    excluded = DEFAULT_EXCLUDED_DIRS if use_default_excludes else set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        if not root.exists():
            raise FileNotFoundError(f"no such path: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            relative = candidate.relative_to(root)
            if any(part in excluded for part in relative.parts[:-1]):
                continue
            yield candidate


def _run_rules(
    contexts: Sequence[FileContext], rules: Sequence[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    """Run ``rules`` over ``contexts``; return (findings, suppressed)."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    by_path = {ctx.path: ctx for ctx in contexts}
    project = None
    if any(rule.project_rule for rule in rules):
        from tools.reprolint.project import ProjectModel

        project = ProjectModel.build(contexts)
    for rule in rules:
        raw: List[Finding] = []
        if rule.project_rule:
            assert project is not None
            raw.extend(rule.check_project(contexts, project))
        else:
            for ctx in contexts:
                if rule.applies_to(ctx):
                    raw.extend(rule.check(ctx))
        for finding in raw:
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.suppressions.is_suppressed(
                finding.rule_id, finding.line
            ):
                suppressed.append(finding)
                continue
            findings.append(finding)
    return sorted(findings), sorted(suppressed)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    use_default_excludes: bool = True,
) -> LintResult:
    """Lint every Python file under ``paths`` and return the result:
    read, parse, run the rules, report. Every run is from scratch."""
    rules = _select_rules(select, ignore)
    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    files_scanned = 0
    for file_path in iter_python_files(paths, use_default_excludes):
        files_scanned += 1
        posix = file_path.as_posix()
        try:
            contexts.append(
                FileContext.from_source(
                    file_path.read_text(encoding="utf-8"), posix
                )
            )
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    path=posix,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id="E999",
                    message=f"syntax error: {exc.msg}",
                )
            )
    findings, suppressed = _run_rules(contexts, rules)
    return LintResult(
        findings=findings,
        files_scanned=files_scanned,
        parse_errors=sorted(parse_errors),
        suppressed=suppressed,
        rules_run=[rule.rule_id for rule in rules],
    )


def lint_source(
    source: str,
    path: str = "module.py",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint a single in-memory source string (test/API convenience)."""
    rules = _select_rules(select, ignore)
    ctx = FileContext.from_source(source, path)
    findings, _ = _run_rules([ctx], rules)
    return findings
