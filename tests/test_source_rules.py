"""Source rules: every run replays bit for bit and the scheduling kernel
cannot see a wall clock, stated as ``ast`` walks over the tree.

Each test pins one rule, documents it in its docstring and fails naming
``file:line`` for every violation. The scope is ``src/repro`` unless the
docstring adds ``tests``. An exception is an allow-list dict entry with
its reason, not a comment in the code; an entry matching nothing fails.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
TESTS = REPO / "tests"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SIMULATED_TIME = {"sim", "engine", "policies", "core"}

#: Findings the RNG test lets through, keyed by (file, offending call).
RNG_ALLOWED = {
    ("tests/test_util_rng.py", "make_rng(None)"): "asserts that make_rng refuses None",
}

#: The architecture: layer -> module-name prefixes (the longest matching
#: prefix assigns a module). A module no prefix assigns fails the
#: layering test, so a new package is placed here before it can land.
LAYERS = {
    "foundation": ["repro.errors", "repro.util"],
    "data": ["repro.text", "repro.ranking", "repro.corpus", "repro.index", "repro.engine"],
    "obs": ["repro.obs"],
    # The clock-agnostic scheduling kernel: policy decisions, the clock
    # protocols, and the pure admission/deadline/degree functions.
    "kernel": ["repro.policies", "repro.core.clock", "repro.core.scheduling"],
    "model": ["repro.profiles"],
    "sim": ["repro.sim"],
    "runtime": ["repro.runtime"],
    "system": ["repro.workloads", "repro.analysis", "repro.core"],
    "harness": ["repro.harness", "repro.cli", "repro.__main__", "repro.__init__"],
}
LAYER_OF = {prefix: layer for layer, prefixes in LAYERS.items() for prefix in prefixes}
#: Layer -> the other layers it may import from.
MAY_IMPORT = {
    "foundation": set(),
    "data": {"foundation"},
    "obs": {"foundation"},
    "kernel": {"foundation", "data", "obs"},
    "model": {"foundation", "data"},
    "sim": {"foundation", "data", "obs", "kernel", "model"},
    # runtime rehosts sim's clock-agnostic pieces (server model, metrics
    # schema, arrival scripts) on wall time; sim never imports runtime.
    "runtime": {"foundation", "data", "obs", "kernel", "model", "sim"},
    "system": {"foundation", "data", "obs", "kernel", "model", "sim", "runtime"},
    "harness": {"foundation", "data", "obs", "kernel", "model", "sim", "runtime", "system"},
}
CLOCK_MODULES = {"time", "asyncio", "datetime", "sched"}
#: The standard-library modules that start threads.
THREAD_MODULES = re.compile(r"(threading|concurrent\.futures)\b")

#: np.random's functions share one global stream (its classes and
#: default_rng do not), and so do the stdlib random module's.
GLOBAL_RNG = re.compile(r"(np|numpy)\.random\.(?!default_rng$)[a-z_]\w*|random\.(?!Random$)\w+")
WALL_CLOCK = re.compile(
    r"time\.(time|perf_counter|monotonic|process_time)(_ns)?"
    r"|(datetime\.)?(datetime\.(now|utcnow|today)|date\.today)"
)
TIME_LIKE = re.compile(r"(latency|time|deadline|duration|elapsed|timeout)$"
                       r"|^(now|arrival|completion|warmup|horizon|t1)$")
IO_CALL = re.compile(
    r"print|open|input|(os|sys|subprocess|shutil|socket)\..*"
    r"|.*\.(write_text|write_bytes|read_text|read_bytes|urlopen|savefig|to_csv)"
)
RNG_CALL = re.compile(r"(np|numpy)\.random\..*|random\..*|Random|RngFactory|(.*\.)?default_rng")
MUTATORS = {"append", "appendleft", "add", "update", "extend", "insert", "pop", "popleft",
            "remove", "discard", "clear", "setdefault"}


@lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def teardown_module():
    _parse.cache_clear()  # the trees are ~30 MiB; free them for the rest of the run


def _files(*roots, packages=None):
    """(repo-relative path, tree) per module, or per ``packages`` module."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if packages is None or rel.split("/")[2] in packages:
                yield rel, _parse(path)


def _nodes(tree, *types):
    return (node for node in ast.walk(tree) if isinstance(node, types))


def _layer(name):
    """Layer of a module or file (``src/repro/a/__init__.py`` = ``repro.a.__init__``)."""
    parts = name[len("src/"):-len(".py")].split("/") if name.endswith(".py") else name.split(".")
    prefixes = (".".join(parts[:cut]) for cut in range(len(parts), 0, -1))
    return next((LAYER_OF[prefix] for prefix in prefixes if prefix in LAYER_OF), None)


def _terminal(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _root(node):
    """The name an attribute/subscript chain hangs off: ``x`` of ``x.a[0]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return getattr(node, "id", None)


def _finding(rel, node, message):
    return rel, getattr(node, "lineno", 1), ast.unparse(node), message


def _assert_none(findings, allowed=None):
    """Fail listing every finding not in ``allowed`` and every stale entry."""
    findings, allowed = set(findings), allowed or {}
    found = {(rel, source) for rel, _, source, _ in findings}
    report = sorted(f"{rel}:{line}: {message}"
                    for rel, line, source, message in findings if (rel, source) not in allowed)
    report += [f"stale allow-list entry {key}" for key in sorted(allowed.keys() - found)]
    assert not report, "\n".join(report)


def test_every_rng_is_seeded_from_a_named_stream():
    """No global (``np.random.rand``), unseeded (``default_rng()``) or
    draw-seeded (``default_rng(rng.integers(...))``) RNG outside
    ``util/rng.py``, in ``src/repro`` and ``tests``: a draw-seeded child
    follows its parent's consumption position, so one draw added upstream
    reshuffles every stream below. Use ``RngFactory.stream``."""
    draws = {"integers", "randint", "random_raw", "bit_generator"}
    findings = []
    for rel, tree in _files(PACKAGE, TESTS):
        for node in _nodes(tree, ast.Call) if rel != "src/repro/util/rng.py" else ():
            terminal = _terminal(node.func)
            unseeded = not node.keywords and [ast.unparse(a) for a in node.args] in ([], ["None"])
            seeded_from = {_terminal(sub.func) for sub in _nodes(node, ast.Call)} & draws
            if GLOBAL_RNG.fullmatch(ast.unparse(node.func)):
                findings.append(_finding(rel, node, "global RNG state"))
            elif terminal in ("default_rng", "make_rng", "Random") and unseeded:
                findings.append(_finding(rel, node, f"{terminal}() without a seed"))
            elif terminal in ("default_rng", "make_rng", "RngFactory", "Generator") and seeded_from:
                findings.append(_finding(rel, node, f"seeded from .{min(seeded_from)}()"))
    _assert_none(findings, RNG_ALLOWED)


def test_simulated_time_code_reads_no_wall_clock():
    """No ``time.time()``, ``perf_counter()``, ``datetime.now()``, ... in
    ``sim/``, ``engine/``, ``policies/`` or ``core/``: that code observes
    time through the simulator (``state.now``), or its output depends on
    host speed. The harness and the CLI time real execution."""
    _assert_none(
        _finding(rel, node, f"wall-clock call {ast.unparse(node.func)}()")
        for rel, tree in _files(PACKAGE, packages=SIMULATED_TIME)
        for node in _nodes(tree, ast.Call)
        if WALL_CLOCK.fullmatch(ast.unparse(node.func))
    )


def test_time_like_values_are_not_compared_exactly():
    """No ``==`` / ``!=`` on a ``TIME_LIKE`` name (``now``, ``*latency``,
    ``*deadline``, ...) except against ``None`` or a tolerance call:
    simulated timestamps are accumulated floats. ``tests`` are out of
    scope, since exact equality is what the replay tests assert."""
    tolerant = {"approx", "isclose", "allclose", "assert_allclose"}
    findings = []
    for rel, tree in _files(PACKAGE):
        for node in _nodes(tree, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, pair in zip(node.ops, zip(operands, operands[1:])):
                calls = {_terminal(getattr(side, "func", None)) for side in pair}
                exempt = calls & tolerant or "None" in map(ast.unparse, pair)
                time_like = any(TIME_LIKE.search((_terminal(side) or "").lower()) for side in pair)
                if isinstance(op, (ast.Eq, ast.NotEq)) and time_like and not exempt:
                    findings.append(_finding(rel, node, "exact comparison of a time-like value"))
    _assert_none(findings)


def test_no_mutable_default_arguments():
    """No list, dict or set literal, comprehension or ``list()``,
    ``dict()``, ``deque()``, ... default (``src/repro`` and ``tests``):
    it is built once and shared by every call, so state leaks between
    queries and experiments."""
    containers = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    makers = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
    _assert_none(
        _finding(rel, default, f"mutable default in {getattr(node, 'name', 'lambda')}")
        for rel, tree in _files(PACKAGE, TESTS)
        for node in _nodes(tree, *FUNCTIONS, ast.Lambda)
        for default in [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        if isinstance(default, containers)
        or isinstance(default, ast.Call) and _terminal(default.func) in makers
    )


def test_simulated_time_code_swallows_no_exception():
    """No bare ``except:``, and no ``except Exception`` / ``BaseException``
    whose body is only ``pass``, in ``sim/``, ``engine/``, ``policies/`` or
    ``core/``: a swallowed invariant violation becomes wrong statistics."""
    findings = []
    for rel, tree in _files(PACKAGE, packages=SIMULATED_TIME):
        for node in _nodes(tree, ast.ExceptHandler):
            caught = _terminal(node.type)
            silent = all(isinstance(s, ast.Pass) or isinstance(s, ast.Expr)
                         and isinstance(s.value, ast.Constant) for s in node.body)
            if node.type is None or caught in ("Exception", "BaseException") and silent:
                findings.append(_finding(rel, node, f"except {caught or ''} swallows errors"))
    _assert_none(findings)


def test_public_simulation_apis_are_fully_annotated():
    """Public functions, and public methods (``__init__`` included) of
    public classes, in ``sim/``, ``policies/`` and ``core/`` annotate
    their return and every parameter but ``self`` / ``cls``: these layers
    are the API the rest of the tree builds on."""
    findings = []
    for rel, tree in _files(PACKAGE, packages={"sim", "policies", "core"}):
        defs = [(node, 0) for node in tree.body if isinstance(node, FUNCTIONS)] + [
            (member, 1)
            for node in tree.body if isinstance(node, ast.ClassDef) and node.name[0] != "_"
            for member in node.body if isinstance(member, FUNCTIONS)
        ]
        for node, is_method in defs:
            if node.name.startswith("_") and node.name != "__init__":
                continue
            static = "staticmethod" in {_terminal(d) for d in node.decorator_list}
            every = [*node.args.posonlyargs, *node.args.args][is_method and not static:]
            every += [*node.args.kwonlyargs, node.args.vararg, node.args.kwarg]
            missing = [arg.arg for arg in every if arg is not None and arg.annotation is None]
            missing += ["return"] * (node.returns is None)
            if missing:
                findings.append((rel, node.lineno, node.name, f"{node.name} lacks {missing}"))
    _assert_none(findings)


def test_every_config_field_is_read():
    """Every field of a ``*Config`` dataclass is read as an attribute (or
    through ``getattr``) somewhere outside its own class: a knob nobody
    reads is a silent no-op that experiments still claim to vary, and a
    ``__post_init__`` check validates a knob without consuming it."""
    reads, configs = Counter(), []
    for rel, tree in _files(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
            elif isinstance(node, ast.Call) and _terminal(node.func) in ("getattr", "hasattr"):
                reads.update(ast.unparse(arg).strip("'\"") for arg in node.args[1:2])
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    configs.append((rel, node))
    findings = []
    for rel, config in configs:
        own = Counter(n.attr for n in _nodes(config, ast.Attribute) if isinstance(n.ctx, ast.Load))
        for field in config.body:
            if isinstance(field, ast.AnnAssign) and "ClassVar" not in ast.unparse(field.annotation):
                if reads[field.target.id] <= own[field.target.id]:
                    message = f"{config.name}.{field.target.id} is never read"
                    findings.append(_finding(rel, field, message))
    _assert_none(findings)


def test_no_module_imports_threads():
    """No module imports one of ``THREAD_MODULES``. ``Lexicon`` (lazy
    posting lists), ``ChunkTrace`` (its memo) and ``ChunkScan`` are
    unsynchronised by design, so a thread would race on all three.
    Parallel work is modelled in virtual time; the chunk protocol's order
    independence is tested over drawn schedules, not host threads."""
    findings = []
    for rel, tree in _files(PACKAGE):
        for node in _nodes(tree, ast.Import, ast.ImportFrom):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            for target in (prefix + alias.name for alias in node.names):
                if THREAD_MODULES.match(target):
                    findings.append(_finding(rel, node, f"imports {target}"))
    _assert_none(findings)


def test_imports_follow_the_layer_table():
    """Every module is in ``LAYER_OF``, and every ``repro.*`` import, lazy
    ones included, targets its own layer or one ``MAY_IMPORT`` lists for
    it. Kernel modules import none of ``time``, ``asyncio``, ``datetime``
    or ``sched``: the kernel runs identically under virtual and wall time
    and sees time only through ``repro.core.clock.ClockProtocol``."""
    findings = []
    for rel, tree in _files(PACKAGE):
        layer = _layer(rel)
        if layer is None:
            findings.append((rel, 1, "", "module is in no layer of LAYER_OF"))
            continue
        for node in _nodes(tree, ast.Import, ast.ImportFrom):
            # `from m import a` targets m; a relative import names no repro module.
            for target in {getattr(node, "module", None) or alias.name for alias in node.names}:
                top, theirs = target.split(".")[0], _layer(target)
                if layer == "kernel" and top in CLOCK_MODULES:
                    findings.append(_finding(rel, node, f"kernel module imports {target}"))
                elif top == "repro" and theirs not in MAY_IMPORT[layer] | {layer}:
                    findings.append(_finding(rel, node, f"{layer} imports {target} ({theirs})"))
    _assert_none(findings)


def test_layer_table_in_docs_matches_the_code():
    """The layer table in ``docs/architecture.md`` §8 (``layer | module
    prefixes | may import``) states ``LAYERS`` and ``MAY_IMPORT`` row for
    row, so the map a reader sees is the one the layering test enforces."""
    text = (REPO / "docs" / "architecture.md").read_text()
    section = text[text.index("## 8. Layering"):text.index("## 9.")]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["layer", "module prefixes", "may import"]
    table = {layer: (prefixes.replace("`", "").split(", "),
                     set() if may == "—" else set(may.split(", ")))
             for layer, prefixes, may in rows[2:]}
    assert table == {layer: (LAYERS[layer], MAY_IMPORT[layer]) for layer in LAYERS}


def test_kernel_functions_are_pure():
    """Kernel functions do no I/O (``IO_CALL``), write no module-level
    state (``global``, or an assignment or mutator call through a
    module-level name) and create no RNG (``RNG_CALL``): a policy decision
    is a function of (state, info) alone, on every replay and host."""
    findings = []
    for rel, tree in _files(PACKAGE):
        if _layer(rel) != "kernel":
            continue
        module_names = {target.id for node in tree.body
                        for target in getattr(node, "targets", [getattr(node, "target", None)])
                        if isinstance(target, ast.Name)}
        for function in _nodes(tree, *FUNCTIONS):
            for node in ast.walk(function):
                problem = None
                if isinstance(node, ast.Global):
                    problem = f"declares global {', '.join(node.names)}"
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    for target in getattr(node, "targets", [getattr(node, "target", None)]):
                        if not isinstance(target, ast.Name) and _root(target) in module_names:
                            problem = f"writes through module-level {_root(target)}"
                elif isinstance(node, ast.Call):
                    call = ast.unparse(node.func)
                    if IO_CALL.fullmatch(call):
                        problem = f"does I/O via {call}()"
                    elif RNG_CALL.fullmatch(call):
                        problem = f"creates an RNG via {call}()"
                    elif call.rpartition(".")[2] in MUTATORS and _root(node.func) in module_names:
                        problem = f"mutates module-level {_root(node.func)}"
                if problem:
                    findings.append(_finding(rel, node, f"{function.name} {problem}"))
    _assert_none(findings)


#: Defaulted parameters and dataclass fields that no call under ``src``,
#: ``benchmarks`` or ``examples`` sets, each with why it stays. A key is
#: ``Owner.name`` (``Class.field``, ``Class.param`` of ``__init__``,
#: ``Class.method.param``, ``function.param``) or a class name for all
#: of its fields.
KEPT = {
    "BatchStats": "accumulator: execute() adds to the zero defaults",
    "ExperimentResult": "accumulator: experiments append tables, charts and checks",
    "TraceRun": "accumulator: the tracer appends traces, samples and events",
    "CostModel.posting_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.match_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.chunk_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.query_fixed_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.fork_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.join_cost": "a coefficient ROADMAP 1b fits",
    "CostModel.merge_cost": "a coefficient ROADMAP 1b fits",
    "EngineConfig.cost_model": "tests vary the cost model to drive the executors' timing",
    "TerminationConfig.use_score_bound": "exhaustive reference mode the equivalence and "
                                         "brute-force tests compare the engine against",
    "CorpusConfig.mean_doc_length": "fixtures build short-document corpora to drive the index "
                                    "and engine; TestOneLexicon pins tiny_corpus's bytes",
    "SystemConfig.min_gain": "benchmarks/perf reads it (ROADMAP 0(i) re-points the probe)",
    "ServingConfig.server_id": "goes with ServingConfig in ROADMAP 4a",
    "run_scripted_live.controllers": "the parity tests drive the live side's controllers",
    "run_scripted_live.tracer": "the parity tests record the live side's spans",
}


def _signatures(tree):
    """``(callee name, owner key, [(name, has default)], n keyword-only)``
    per module-level function, method and dataclass in ``tree``; a class
    is called by its own name, so ``__init__`` and the dataclass's
    fields register under it."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name, *_parameters(node, method=False)
    for cls in _nodes(tree, ast.ClassDef):
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [(s.target.id, s.value is not None) for s in cls.body
                      if isinstance(s, ast.AnnAssign) and "ClassVar" not in ast.unparse(s.annotation)]
            yield cls.name, cls.name, fields, 0
        for method in (m for m in cls.body if isinstance(m, FUNCTIONS)):
            init = method.name == "__init__"
            static = "staticmethod" in {_terminal(d) for d in method.decorator_list}
            yield (cls.name if init else method.name,
                   cls.name if init else f"{cls.name}.{method.name}",
                   *_parameters(method, method=not static))


def _parameters(function, method):
    args = function.args
    positional = [*args.posonlyargs, *args.args][int(method):]
    first_default = len(positional) - len(args.defaults)
    names = [(arg.arg, i >= first_default) for i, arg in enumerate(positional)]
    names += [(arg.arg, default is not None)
              for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
    return names, len(args.kwonlyargs)


def test_every_parameter_has_a_customer():
    """Every defaulted parameter of a module-level function or method in
    ``src/repro``, and every dataclass field with a default, is set by a
    call under ``src``, ``benchmarks`` or ``examples`` — by keyword, by
    position, through ``cls(...)`` in a classmethod, ``partial`` or
    ``dataclasses.replace`` — or is in ``KEPT`` with its reason: a knob
    only a test turns is a path the program never takes. Calls resolve
    by callee name, so two functions of one name share their callers."""
    signatures = {}
    for _, tree in _files(PACKAGE):
        for name, owner, params, n_keyword_only in _signatures(tree):
            signatures.setdefault(name, []).append((owner, params, n_keyword_only))
    used = set()
    for _, tree in _files(PACKAGE, REPO / "benchmarks", REPO / "examples"):
        classes = {id(call): cls.name for cls in _nodes(tree, ast.ClassDef)
                   for call in _nodes(cls, ast.Call) if _terminal(call.func) == "cls"}
        for call in _nodes(tree, ast.Call):
            name, args = classes.get(id(call), _terminal(call.func)), call.args
            if name == "partial" and args:
                name, args = _terminal(args[0]), args[1:]
            keywords = {keyword.arg for keyword in call.keywords}
            if name == "replace":
                used |= {(owner, field) for candidates in signatures.values()
                         for owner, params, _ in candidates for field, _ in params
                         if field in keywords}
            for owner, params, n_keyword_only in signatures.get(name, ()):
                names = [param for param, _ in params]
                positional = names[:len(names) - n_keyword_only]
                if None in keywords:  # a ** mapping may hold any of them
                    positional = names
                elif not any(isinstance(arg, ast.Starred) for arg in args):
                    positional = positional[:len(args)]
                used |= {(owner, p) for p in names if p in positional or p in keywords}
    unset = {f"{owner}.{param}" for candidates in signatures.values()
             for owner, params, _ in candidates for param, default in params
             if default and (owner, param) not in used}
    report = [f"{key} is set only by tests, or by nothing" for key in sorted(unset)
              if key not in KEPT and key.split(".")[0] not in KEPT]
    report += [f"stale KEPT entry {key}" for key in sorted(KEPT)
               if not any(key in (found, found.split(".")[0]) for found in unset)]
    assert not report, "\n".join(report)
