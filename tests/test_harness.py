"""Tests for the experiment harness: registry, results, fast experiments.

The sim-heavy experiments (E5, E6, E8) are exercised by the benchmark
suite; here we run the cheap ones end-to-end at small scale and unit-test
the harness plumbing.
"""

import ast
import re
from pathlib import Path

import pytest
from test_examples import EXAMPLES_DIR, FAST_EXAMPLES

from repro.errors import ConfigurationError
from repro.harness import experiments, registry
from repro.harness.context import ExperimentContext, Scale
from repro.harness.registry import EXPERIMENTS, TITLES, get_experiment, run_experiment
from repro.harness.result import CheckOutcome, ExperimentResult
from repro.util.serde import dumps
from repro.util.tables import Table


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=Scale.SMALL)


class TestRegistry:
    def test_all_experiments_registered(self):
        # Every experiments/e*.py that defines EXPERIMENT_ID is in
        # _MODULES, ids are unique, and each entry is runnable.
        on_disk = {
            path.stem
            for path in Path(experiments.__file__).parent.glob("e*.py")
            if "\nEXPERIMENT_ID = " in path.read_text()
        }
        registered = {m.__name__.rpartition(".")[2] for m in registry._MODULES}
        assert registered == on_disk
        assert len(registry._MODULES) == len(EXPERIMENTS)
        for module in registry._MODULES:
            assert callable(module.run) and module.TITLE

    def test_titles_present(self):
        assert all(TITLES[eid] for eid in EXPERIMENTS)

    def test_lookup_case_insensitive(self):
        assert get_experiment("E01") is EXPERIMENTS["e01"]

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("e99")


class TestEveryModuleHasACustomer:
    """ROADMAP item 7: every module under ``src/repro`` is imported by
    something that runs — the CLI, a registered experiment, a benchmark
    workload, a Makefile ``python -c`` target or an example tier-1
    executes. A package ``__init__`` resolves names to the module that
    defines them but its re-exports are not customers."""

    REPO = Path(__file__).parent.parent
    SRC = REPO / "src"
    #: Modules kept without a running customer, each with its reason.
    KEPT = {
        "repro.engine.reference": "reference implementation the engine tests compare against",
    }

    @staticmethod
    def imports(source):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name

    def test_every_module_is_reachable_from_something_that_runs(self):
        modules = {}
        for path in (self.SRC / "repro").rglob("*.py"):
            parts = path.relative_to(self.SRC).with_suffix("").parts
            modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        packages = {name for name, path in modules.items() if path.name == "__init__.py"}

        def resolve(module, name):
            if f"{module}.{name}" in modules:
                return f"{module}.{name}"
            if module in packages:
                for origin, original, bound in self.imports(modules[module].read_text()):
                    if bound == name:
                        return resolve(origin, original)
            return module

        def targets(source):
            return {resolve(m, n) for m, n, _ in self.imports(source)} & modules.keys()

        todo = {"repro.cli", "repro.__main__"} | {m.__name__ for m in registry._MODULES}
        scripts = [*(self.REPO / "benchmarks" / "perf").rglob("*.py")]
        scripts += [EXAMPLES_DIR / name for name in FAST_EXAMPLES]
        for path in scripts:
            todo |= targets(path.read_text())
        makefile = (self.REPO / "Makefile").read_text()
        for snippet in re.findall(r'python -c "([^"]*)"', makefile):
            todo |= targets(snippet.replace("\\\n", ""))
        reached = set()
        while todo:
            module = todo.pop()
            reached.add(module)
            if module not in packages:
                todo |= targets(modules[module].read_text()) - reached
        orphans = modules.keys() - packages - reached
        assert orphans == self.KEPT.keys(), "customer-less modules != KEPT: " + ", ".join(
            sorted(orphans ^ self.KEPT.keys())
        )


class TestResult:
    def test_render_includes_tables_and_checks(self):
        result = ExperimentResult("e00", "Title", "Desc")
        table = Table(["a"], title="T")
        table.add_row([1])
        result.add_table(table)
        result.add_check("always", True, "fine")
        text = result.render()
        assert "E00" in text and "T" in text and "[PASS] always" in text

    def test_all_checks_passed(self):
        result = ExperimentResult("e00", "t", "d")
        result.add_check("a", True)
        assert result.all_checks_passed
        result.add_check("b", False)
        assert not result.all_checks_passed

    def test_to_json_serializable(self):
        result = ExperimentResult("e00", "t", "d")
        result.add_check("a", True, "ok")
        result.data = {"x": [1, 2]}
        assert dumps(result.to_json())

    def test_check_outcome_render(self):
        assert CheckOutcome("n", False, "why").render() == "[FAIL] n — why"


@pytest.mark.parametrize("experiment_id", ["e01", "e02", "e03", "e04"])
class TestFastExperiments:
    def test_runs_and_passes(self, ctx, experiment_id):
        result = run_experiment(experiment_id, ctx)
        assert result.experiment_id == experiment_id
        assert result.tables, "experiment produced no tables"
        failed = [c for c in result.checks if not c.passed]
        assert not failed, f"failed checks: {[c.name for c in failed]}"

    def test_json_roundtrip(self, ctx, experiment_id):
        result = run_experiment(experiment_id, ctx)
        payload = result.to_json()
        assert payload["experiment_id"] == experiment_id
        assert dumps(payload)


class TestSimExperiments:
    """One representative sim-backed experiment end-to-end (small scale)."""

    def test_e07_degree_mix(self, ctx):
        result = run_experiment("e07", ctx)
        assert result.all_checks_passed, result.render()

    def test_e11_validation(self, ctx):
        result = run_experiment("e11", ctx)
        assert result.all_checks_passed, result.render()


class TestContext:
    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert Scale.from_env() is Scale.SMALL
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            Scale.from_env()
        monkeypatch.delenv("REPRO_SCALE")
        assert Scale.from_env() is Scale.REFERENCE

    def test_system_cached_per_scale(self, ctx):
        assert ctx.system is ExperimentContext(scale=Scale.SMALL).system

    def test_system_cached_per_scale_and_seed(self, monkeypatch):
        from repro.harness import context

        built = []

        class _System:
            def __init__(self, config):
                built.append(config.seed)

        monkeypatch.setattr(context, "cached_workbench", lambda config: config)
        monkeypatch.setattr(
            context.AdaptiveSearchSystem,
            "from_workbench",
            staticmethod(lambda workbench, config: _System(config)),
        )
        monkeypatch.setattr(ExperimentContext, "_SYSTEMS", {})
        one = ExperimentContext(Scale.SMALL, seed=1).system
        two = ExperimentContext(Scale.SMALL, seed=2).system
        assert one is not two and built == [1, 2]
        assert ExperimentContext(Scale.SMALL, seed=1).system is one
        assert built == [1, 2]


class TestRegimeRecovery:
    def test_recovery_waits_for_the_bucket_p99(self):
        # E20's small-scale runs recover on shedding alone, so the golden
        # never sees this branch: 3 slow answers in 100 hold a bucket
        # over the SLO at its 99th percentile (not at its 0.99th).
        from types import SimpleNamespace

        from repro.harness.experiments.e20_regimes import _recovery_s

        def bucket(start_s, n_slow):
            return [
                SimpleNamespace(
                    arrival_s=start_s + 0.001 * i, shed_reason=None,
                    completed=True, latency_s=5.0 if i < n_slow else 0.1,
                )
                for i in range(100)
            ]

        traces = bucket(10.0, 3) + bucket(11.0, 0) + bucket(12.0, 0)
        recovery_s = _recovery_s(
            traces, burst_end_s=10.0, horizon_s=13.0, slo_s=1.0, bucket_s=1.0
        )
        assert recovery_s == 1.0
