"""Built-in reprolint rules (R001–R008).

Each rule encodes one determinism / simulation-correctness convention of
this repository; CONTRIBUTING.md documents the rationale and the
suppression policy for every id. Path scoping uses directory components,
so the same rules work on ``src/repro/sim/...`` and on fixture trees
laid out as ``<tmp>/sim/...`` in the rule tests.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from tools.reprolint.core import FileContext, Finding, Rule, register

#: Code that runs in *simulated* time: wall-clock reads and swallowed
#: exceptions here silently corrupt replays.
SIM_TIME_DIRS = {"sim", "engine", "policies", "core"}
#: Wall-clock is legitimate in the harness / CLI (progress timing).
WALL_CLOCK_EXEMPT_DIRS = {"harness"}
WALL_CLOCK_EXEMPT_FILES = {"cli.py"}
#: Public simulation APIs that must be fully annotated.
ANNOTATION_DIRS = {"sim", "policies", "core"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a name/attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _in_sim_time_scope(ctx: FileContext) -> bool:
    if ctx.in_dirs(WALL_CLOCK_EXEMPT_DIRS) or ctx.filename in WALL_CLOCK_EXEMPT_FILES:
        return False
    return ctx.in_dirs(SIM_TIME_DIRS)


_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

_STDLIB_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}


@register
class GlobalRngRule(Rule):
    """R001 — no global or unseeded RNGs outside ``util/rng.py``."""

    rule_id = "R001"
    summary = "no global/unseeded RNGs"
    rationale = (
        "Module-level RNG state (np.random.*, random.*) and unseeded "
        "default_rng() make runs irreproducible and couple every caller "
        "to a shared stream; all randomness must flow from an explicit "
        "seed through repro.util.rng."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not (ctx.filename == "rng.py" and ctx.in_dirs({"util"}))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            yield from self._check_call(ctx, node, dotted)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, dotted: str
    ) -> Iterator[Finding]:
        parts = dotted.split(".")
        # numpy global-state API: np.random.rand(...), np.random.seed(...)
        if len(parts) >= 3 and parts[-3] in {"np", "numpy"} and parts[-2] == "random":
            if parts[-1] not in _NP_RANDOM_ALLOWED:
                yield self.finding(
                    ctx, node,
                    f"global numpy RNG call '{dotted}'; draw from an explicit "
                    "Generator (repro.util.rng.make_rng / RngFactory)",
                )
                return
        # stdlib random module: random.random(), random.Random()
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _STDLIB_RANDOM_FNS:
                yield self.finding(
                    ctx, node,
                    f"global stdlib RNG call '{dotted}'; use a seeded "
                    "numpy Generator from repro.util.rng instead",
                )
                return
            if parts[1] == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, "unseeded random.Random(); pass an explicit seed"
                )
                return
        # Unseeded construction: default_rng() / default_rng(None) /
        # make_rng() / make_rng(None).
        if parts[-1] in {"default_rng", "make_rng"}:
            seedless = not node.args and not node.keywords
            explicit_none = (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
                and not node.keywords
            )
            if seedless or explicit_none:
                yield self.finding(
                    ctx, node,
                    f"'{dotted}' without an explicit seed is nondeterministic; "
                    "pass a seed (derive per-component seeds via "
                    "repro.util.rng.derive_seed)",
                )


_RNG_CONSTRUCTORS = {"default_rng", "make_rng", "RngFactory", "Generator"}
_AD_HOC_DRAWS = {"integers", "randint", "random_raw", "bit_generator"}


@register
class AdHocSeedDerivationRule(Rule):
    """R002 — derive child RNGs via ``derive_seed``, not ``rng.integers``."""

    rule_id = "R002"
    summary = "no ad-hoc child-RNG derivation"
    rationale = (
        "Seeding a child generator from rng.integers(...) couples the "
        "child stream to the parent's consumption position: inserting one "
        "draw upstream silently reshuffles every downstream component. "
        "util/rng.py forbids this; use derive_seed()/RngFactory.stream()."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not (ctx.filename == "rng.py" and ctx.in_dirs({"util"}))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            terminal = _terminal_name(node.func)
            if terminal not in _RNG_CONSTRUCTORS:
                continue
            seed_exprs = list(node.args) + [kw.value for kw in node.keywords]
            for seed_expr in seed_exprs:
                draw = self._find_draw(seed_expr)
                if draw is not None:
                    yield self.finding(
                        ctx, node,
                        f"child RNG seeded from '{draw}'; derive child seeds "
                        "with repro.util.rng.derive_seed / RngFactory.stream "
                        "so streams stay position-independent",
                    )
                    break

    @staticmethod
    def _find_draw(expr: ast.AST) -> Optional[str]:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in _AD_HOC_DRAWS:
                    return dotted_name(sub.func) or sub.func.attr
        return None


_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
}


@register
class WallClockRule(Rule):
    """R003 — no wall-clock reads in simulated-time code."""

    rule_id = "R003"
    summary = "no wall-clock in sim/engine/policies/core"
    rationale = (
        "Simulation components observe time only through the simulator "
        "(state.now / simulator.now). A wall-clock read makes behavior "
        "depend on host speed, breaking bit-identical replays. The "
        "harness and CLI legitimately time real execution and are exempt."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _in_sim_time_scope(ctx)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call '{dotted}' in simulated-time code; use "
                    "simulator time (state.now / simulator.now) instead",
                )


_TIME_LIKE_SUFFIX = re.compile(r"(latency|time|deadline|duration|elapsed|timeout)$")
_TIME_LIKE_EXACT = {"now", "arrival", "completion", "warmup", "horizon", "t1"}
_APPROX_CALLS = {"approx", "isclose", "allclose", "assert_allclose"}


@register
class FloatTimeEqualityRule(Rule):
    """R004 — no ``==``/``!=`` on latency/time-valued names."""

    rule_id = "R004"
    summary = "no float equality on time-like values"
    rationale = (
        "Latencies and simulated timestamps are floats accumulated "
        "through arithmetic; exact equality is representation-dependent "
        "and breaks silently under refactoring. Compare with tolerances "
        "(math.isclose / pytest.approx) or restructure the check. Test "
        "code is exempt: exact equality is what the replay and "
        "bit-identity tests assert."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.in_dirs({"tests"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                name = self._time_like(left) or self._time_like(right)
                if name is None:
                    continue
                if self._exempt(left) or self._exempt(right):
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    ctx, node,
                    f"float equality '{symbol}' on time-like value '{name}'; "
                    "use math.isclose / pytest.approx or an explicit "
                    "tolerance",
                )

    @staticmethod
    def _time_like(node: ast.AST) -> Optional[str]:
        name = _terminal_name(node)
        if name is None:
            return None
        lowered = name.lower()
        if lowered in _TIME_LIKE_EXACT or _TIME_LIKE_SUFFIX.search(lowered):
            return name
        return None

    @staticmethod
    def _exempt(node: ast.AST) -> bool:
        # pytest.approx(...) / math.isclose(...) wrap a tolerance; None
        # comparisons are identity checks, not float equality.
        if isinstance(node, ast.Call):
            terminal = _terminal_name(node.func)
            return terminal in _APPROX_CALLS
        return isinstance(node, ast.Constant) and node.value is None


_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
}


@register
class MutableDefaultRule(Rule):
    """R005 — no mutable default arguments."""

    rule_id = "R005"
    summary = "no mutable default arguments"
    rationale = (
        "A mutable default is created once at definition time and shared "
        "across calls: state leaks between queries/experiments, the "
        "classic source of order-dependent, irreproducible behavior."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                description = self._mutable(default)
                if description is not None:
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default {description} in '{label}'; default "
                        "to None (or a tuple) and build the container inside "
                        "the function",
                    )

    @staticmethod
    def _mutable(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.List):
            return "[]" if not node.elts else "list literal"
        if isinstance(node, ast.Dict):
            return "{}" if not node.keys else "dict literal"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return "comprehension"
        if isinstance(node, ast.Call):
            terminal = _terminal_name(node.func)
            if terminal in _MUTABLE_CALLS:
                return f"{terminal}(...)"
        return None


@register
class SwallowedExceptionRule(Rule):
    """R007 — no bare/blanket exception swallowing in sim hot paths."""

    rule_id = "R007"
    summary = "no bare except / swallowed Exception in sim code"
    rationale = (
        "A swallowed exception in the simulator or engine converts an "
        "invariant violation into silently wrong statistics — the worst "
        "failure mode for a reproduction whose output is numbers."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _in_sim_time_scope(ctx)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' in simulation code; catch the specific "
                    "repro error type (see repro.errors)",
                )
                continue
            caught = _terminal_name(node.type)
            if caught in {"Exception", "BaseException"} and self._swallows(node):
                yield self.finding(
                    ctx, node,
                    f"'except {caught}' silently swallowed in simulation "
                    "code; handle or re-raise (simulation errors must not "
                    "become silently wrong statistics)",
                )

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        for statement in node.body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or ellipsis
            return False
        return True


@register
class PublicAnnotationRule(Rule):
    """R008 — public functions in sim/policies/core are fully annotated."""

    rule_id = "R008"
    summary = "public sim/policies/core functions fully annotated"
    rationale = (
        "The simulation and policy layers are the API other layers build "
        "on; complete annotations keep mypy able to catch unit mistakes "
        "(seconds vs milliseconds, int degree vs float) at review time."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dirs(ANNOTATION_DIRS) and not ctx.in_dirs(
            WALL_CLOCK_EXEMPT_DIRS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, owner in self._public_functions(ctx.tree):
            missing = self._missing(func, is_method=owner is not None)
            if missing:
                label = f"{owner}.{func.name}" if owner else func.name
                yield self.finding(
                    ctx, func,
                    f"public function '{label}' missing annotations: "
                    f"{', '.join(missing)}",
                )

    @staticmethod
    def _public_functions(
        tree: ast.Module,
    ) -> Iterator[Tuple[ast.FunctionDef, Optional[str]]]:
        def is_public(name: str) -> bool:
            return not name.startswith("_") or name == "__init__"

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_public(node.name):
                    yield node, None
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if is_public(member.name):
                            yield member, node.name

    @staticmethod
    def _missing(func: ast.FunctionDef, is_method: bool) -> List[str]:
        missing: List[str] = []
        positional = list(func.args.posonlyargs) + list(func.args.args)
        if is_method and positional:
            decorators = {
                _terminal_name(d.func if isinstance(d, ast.Call) else d)
                for d in func.decorator_list
            }
            if "staticmethod" not in decorators:
                positional = positional[1:]  # self / cls
        for arg in positional + list(func.args.kwonlyargs):
            if arg.annotation is None:
                missing.append(f"parameter '{arg.arg}'")
        for vararg, prefix in ((func.args.vararg, "*"), (func.args.kwarg, "**")):
            if vararg is not None and vararg.annotation is None:
                missing.append(f"parameter '{prefix}{vararg.arg}'")
        if func.returns is None:
            missing.append("return type")
        return missing
