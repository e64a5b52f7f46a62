"""Tests for tools/reprolint: every rule, suppression, reporters, CLI.

Fixture files live in ``tests/fixtures/reprolint`` (excluded from real
lint runs by the default excludes). Each violating line carries an
``# EXPECT:RXXX`` marker; tests assert the linter reports *exactly* the
marked (line, rule) multiset — exact counts and exact line numbers.
Path-scoped rules are exercised by copying fixtures into ``sim/`` (in
scope) and ``harness/``/``engine/`` (exempt) directories.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tools.reprolint import all_rules, lint_paths, lint_source
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.core import Suppressions
from tools.reprolint.reporter import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reprolint"

_EXPECT = re.compile(r"EXPECT:(R\d{3})")


def expected_findings(fixture: Path) -> Counter:
    """(filename, line, rule) -> count multiset from EXPECT markers.

    ``fixture`` may be a single file or a directory tree (whole-program
    rule fixtures span several modules).
    """
    files = sorted(fixture.rglob("*.py")) if fixture.is_dir() else [fixture]
    expectations: Counter = Counter()
    for path in files:
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            for rule_id in _EXPECT.findall(text):
                expectations[(path.name, lineno, rule_id)] += 1
    return expectations


def actual_findings(result) -> Counter:
    return Counter(
        (Path(f.path).name, f.line, f.rule_id) for f in result.findings
    )


def lint_fixture(tmp_path: Path, fixture_name: str, rule_id: str, subdir: str = "sim"):
    """Copy a fixture (file or tree) under ``<tmp>/<subdir>/`` and lint
    it with one rule."""
    target_dir = tmp_path / subdir
    source = FIXTURES / fixture_name
    if source.is_dir():
        shutil.copytree(source, target_dir / fixture_name)
        return lint_paths([str(target_dir / fixture_name)], select=[rule_id])
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / fixture_name
    shutil.copy(source, target)
    return lint_paths([str(target)], select=[rule_id])


RULE_FIXTURES = {
    "R001": "r001_global_rng.py",
    "R002": "r002_adhoc_derivation.py",
    "R003": "r003_wall_clock.py",
    "R004": "r004_float_equality.py",
    "R005": "r005_mutable_defaults.py",
    "R007": "r007_swallowed_exceptions.py",
    "R008": "r008_annotations.py",
    "R011": "r011_config_typed.py",
    "R012": "r012_thread_safety.py",
    "R014": "r014_layering",
    "R017": "r017_purity",
}


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_exact_findings_and_lines(self, tmp_path, rule_id):
        fixture_name = RULE_FIXTURES[rule_id]
        result = lint_fixture(tmp_path, fixture_name, rule_id)
        expected = expected_findings(FIXTURES / fixture_name)
        assert expected, f"fixture {fixture_name} has no EXPECT markers"
        assert actual_findings(result) == expected

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_suppression_comment_works(self, tmp_path, rule_id):
        # Every fixture contains at least one deliberately-suppressed
        # violation; stripping the suppressions must surface MORE
        # findings than the annotated run.
        fixture_name = RULE_FIXTURES[rule_id]
        annotated = lint_fixture(tmp_path / "with", fixture_name, rule_id)
        stripped_root = tmp_path / "without" / "sim"
        source_fixture = FIXTURES / fixture_name
        files = (
            sorted(source_fixture.rglob("*.py"))
            if source_fixture.is_dir()
            else [source_fixture]
        )
        saw_suppression = False
        for path in files:
            source = path.read_text()
            saw_suppression = saw_suppression or "reprolint: disable=" in source
            relative = (
                path.relative_to(source_fixture.parent)
                if source_fixture.is_dir()
                else Path(path.name)
            )
            target = stripped_root / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                re.sub(r"# reprolint: disable=\S+.*$", "", source, flags=re.M)
            )
        assert saw_suppression, f"{fixture_name} exercises no suppressions"
        if source_fixture.is_dir():
            # Carry non-Python fixture files (layers.toml maps) along —
            # without them the layer-driven rules go silent.
            for extra in source_fixture.rglob("*"):
                if extra.is_file() and extra.suffix != ".py":
                    target = stripped_root / extra.relative_to(
                        source_fixture.parent
                    )
                    target.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copy(extra, target)
        without = lint_paths([str(stripped_root)], select=[rule_id])
        assert len(without.findings) > len(annotated.findings)


class TestPathScoping:
    def test_wall_clock_exempt_in_harness(self, tmp_path):
        result = lint_fixture(
            tmp_path, "r003_wall_clock.py", "R003", subdir="harness"
        )
        assert result.findings == []

    def test_wall_clock_exempt_in_cli(self):
        source = "import time\n\n\ndef f() -> float:\n    return time.time()\n"
        assert lint_source(source, "src/repro/cli.py", select=["R003"]) == []

    def test_annotations_not_required_in_engine(self, tmp_path):
        result = lint_fixture(
            tmp_path, "r008_annotations.py", "R008", subdir="engine"
        )
        assert result.findings == []

    def test_rng_module_itself_exempt_from_r001(self):
        source = "import numpy as np\n\n\ndef make() -> object:\n    return np.random.default_rng()\n"
        assert lint_source(source, "src/repro/util/rng.py", select=["R001"]) == []
        assert lint_source(source, "src/other/mod.py", select=["R001"]) != []


class TestSuppressionParsing:
    def test_line_and_file_directives(self):
        source = (
            "# reprolint: disable-file=R011\n"
            "x = 1  # reprolint: disable=R001, R002 -- justified\n"
        )
        sup = Suppressions.from_source(source)
        assert sup.is_suppressed("R011", 99)
        assert sup.is_suppressed("r001", 2)
        assert sup.is_suppressed("R002", 2)
        assert not sup.is_suppressed("R001", 1)
        assert not sup.is_suppressed("R003", 2)

    def test_disable_all(self):
        sup = Suppressions.from_source("y = 2  # reprolint: disable=all\n")
        assert sup.is_suppressed("R007", 1)


class TestRealTreeGate:
    def test_src_is_clean(self):
        result = lint_paths([str(REPO_ROOT / "src")])
        assert result.all_findings == []

    def test_reintroducing_cluster_rng_derivation_fails(self, tmp_path):
        # Acceptance check: putting the old ad-hoc derivation back into
        # sim/cluster.py must fail with R002 at the edited line.
        cluster = (REPO_ROOT / "src/repro/sim/cluster.py").read_text()
        good = 'arrival_rng = streams.stream("arrivals")'
        assert good in cluster
        bad = "arrival_rng = np.random.default_rng(rng.integers(2**63))"
        mutated = cluster.replace(good, bad)
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        target = target_dir / "cluster.py"
        target.write_text(mutated)
        result = lint_paths([str(target)], select=["R002"])
        assert len(result.findings) == 1
        finding = result.findings[0]
        bad_line = 1 + mutated[: mutated.index(bad)].count("\n")
        assert finding.rule_id == "R002"
        assert finding.line == bad_line

    def test_wall_clock_in_server_fails(self, tmp_path):
        server = (REPO_ROOT / "src/repro/sim/server.py").read_text()
        marker = "        self.metrics.on_arrival()"
        assert marker in server
        mutated = server.replace(
            marker, "        import time\n        _t0 = time.time()\n" + marker
        )
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        target = target_dir / "server.py"
        target.write_text(mutated)
        result = lint_paths([str(target)], select=["R003"])
        assert [f.rule_id for f in result.findings] == ["R003"]
        # time.time() sits on the line directly above the marker.
        marker_line = 1 + mutated[: mutated.index(marker)].count("\n")
        assert result.findings[0].line == marker_line - 1

    # -- R014/R017 mutation regressions on copies of the real kernel ----

    _KERNEL_MAP = (
        "[layers]\n"
        'kernel = ["core"]\n'
        "\n"
        "[clock]\n"
        'kernel_layers = ["kernel"]\n'
        'forbidden_modules = ["time", "asyncio", "datetime", "sched"]\n'
        'clock_classes = ["ClockProtocol", "SchedulerProtocol", '
        '"VirtualClock", "SystemState"]\n'
        "\n"
        "[purity]\n"
        'layers = ["kernel"]\n'
    )

    def _kernel_copy(self, root: Path, source: str) -> Path:
        """Stage a scheduling-kernel copy under a miniature layer map."""
        root.mkdir(parents=True, exist_ok=True)
        (root / "layers.toml").write_text(self._KERNEL_MAP)
        target_dir = root / "core"
        target_dir.mkdir()
        (target_dir / "scheduling.py").write_text(source)
        return target_dir

    def test_wall_clock_read_in_kernel_fails(self, tmp_path):
        scheduling = (REPO_ROOT / "src/repro/core/scheduling.py").read_text()
        clean_dir = self._kernel_copy(tmp_path / "clean", scheduling)
        assert lint_paths([str(clean_dir)], select=["R014"]).findings == []
        anchor = "from repro.policies.base import SystemState"
        marker = "    wait = now - arrival"
        assert anchor in scheduling and marker in scheduling
        mutated = scheduling.replace(anchor, "import time\n" + anchor)
        mutated = mutated.replace(marker, "    wait = sim.now - arrival")
        bad_dir = self._kernel_copy(tmp_path / "bad", mutated)
        result = lint_paths([str(bad_dir)], select=["R014"])
        assert [f.rule_id for f in result.findings] == ["R014", "R014"]
        import_line = 1 + mutated[: mutated.index("import time\n")].count("\n")
        read_line = 1 + mutated[: mutated.index("sim.now")].count("\n")
        assert sorted(f.line for f in result.findings) == sorted(
            [import_line, read_line]
        )

    def test_print_in_kernel_policy_fails(self, tmp_path):
        scheduling = (REPO_ROOT / "src/repro/core/scheduling.py").read_text()
        clean_dir = self._kernel_copy(tmp_path / "clean", scheduling)
        assert lint_paths([str(clean_dir)], select=["R017"]).findings == []
        marker = "    cap = min(requested, free_cores)"
        assert marker in scheduling
        injected = '    print("granting", requested)\n'
        mutated = scheduling.replace(marker, injected + marker)
        bad_dir = self._kernel_copy(tmp_path / "bad", mutated)
        result = lint_paths([str(bad_dir)], select=["R017"])
        assert [f.rule_id for f in result.findings] == ["R017"]
        bad_line = 1 + mutated[: mutated.index(injected)].count("\n")
        assert result.findings[0].line == bad_line


class TestReporters:
    def test_text_format(self, tmp_path):
        result = lint_fixture(tmp_path, "r005_mutable_defaults.py", "R005")
        text = render_text(result)
        assert "R005" in text
        first = result.findings[0]
        assert f"{first.path}:{first.line}:{first.col}: R005" in text

    def test_text_clean_summary(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Nothing to report."""\n')
        result = lint_paths([str(clean)])
        assert "clean: 0 findings" in render_text(result)

    def test_json_format(self, tmp_path):
        result = lint_fixture(tmp_path, "r007_swallowed_exceptions.py", "R007")
        payload = json.loads(render_json(result))
        assert payload["counts_by_rule"] == {"R007": 2}
        assert {f["rule"] for f in payload["findings"]} == {"R007"}
        assert all(
            {"path", "line", "col", "rule", "message"} <= set(f)
            for f in payload["findings"]
        )

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([str(bad)])
        assert not result.ok
        assert result.all_findings[0].rule_id == "E999"

    def test_json_schema_shape(self, tmp_path):
        # The JSON report is consumed by CI tooling; its top-level shape
        # is a stable contract (schema_version bumps on change).
        result = lint_fixture(tmp_path, "r007_swallowed_exceptions.py", "R007")
        payload = json.loads(render_json(result))
        assert set(payload) == {
            "schema_version",
            "files_scanned",
            "rules",
            "counts_by_rule",
            "findings",
            "suppressed_by_rule",
            "suppressed_total",
        }
        assert payload["schema_version"] == 3
        assert payload["files_scanned"] == 1
        for rule_id, meta in payload["rules"].items():
            assert re.fullmatch(r"R\d{3}", rule_id)
            assert set(meta) == {"summary", "rationale", "project_rule"}
            assert isinstance(meta["project_rule"], bool)
        assert payload["suppressed_total"] == sum(
            payload["suppressed_by_rule"].values()
        )

    def test_json_reports_suppressions(self, tmp_path):
        result = lint_fixture(tmp_path, "r005_mutable_defaults.py", "R005")
        payload = json.loads(render_json(result))
        assert payload["suppressed_by_rule"].get("R005", 0) >= 1


class TestSuppressionEdges:
    def test_fixture_exact(self, tmp_path):
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        target = target_dir / "suppression_edges.py"
        shutil.copy(FIXTURES / "suppression_edges.py", target)
        result = lint_paths([str(target)], select=["R001", "R004", "R005"])
        expected = expected_findings(FIXTURES / "suppression_edges.py")
        assert actual_findings(result) == expected

    def test_fixture_suppressed_set(self, tmp_path):
        # disable=all and the comma list silence R001 (lines 19-20); the
        # file-wide directive silences R004 everywhere (lines 33, 37);
        # the per-line disable on `combined` silences its R005 (line 36).
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        target = target_dir / "suppression_edges.py"
        shutil.copy(FIXTURES / "suppression_edges.py", target)
        result = lint_paths([str(target)], select=["R001", "R004", "R005"])
        suppressed = sorted((f.line, f.rule_id) for f in result.suppressed)
        assert suppressed == [
            (19, "R001"),
            (20, "R001"),
            (33, "R004"),
            (36, "R005"),
            (37, "R004"),
        ]

    def test_malformed_directives_suppress_nothing(self):
        for text in (
            "x = 1  # reprolint: disable R001\n",  # missing '='
            "x = 1  # reprolint: disab1e=R001\n",  # typo
            "x = 1  # reprolint: disable=\n",  # empty list
        ):
            sup = Suppressions.from_source(text)
            assert not sup.is_suppressed("R001", 1), text

    def test_disable_file_all(self):
        sup = Suppressions.from_source("# reprolint: disable-file=all\nx = 1\n")
        assert sup.is_suppressed("R001", 2)
        assert sup.is_suppressed("R012", 2)


class TestReportStability:
    """Same tree, different CWDs — the JSON report must be
    byte-identical (fingerprints in CI diff them across runs)."""

    @pytest.mark.parametrize("fmt", ["json"])
    def test_two_cwds_byte_identical(self, tmp_path, monkeypatch, fmt):
        outputs = {}
        for name in ("left", "right"):
            workdir = tmp_path / name
            shutil.copytree(FIXTURES / "r014_layering", workdir / "r014_layering")
            monkeypatch.chdir(workdir)
            out = tmp_path / f"{name}.{fmt}"
            assert (
                reprolint_main(
                    ["r014_layering", "--select", "R014", "--format", fmt,
                     "--output", str(out), "--exit-zero"]
                )
                == 0
            )
            outputs[name] = out.read_bytes()
        assert outputs["left"] == outputs["right"]


class TestCli:
    def test_exit_zero_flag(self, tmp_path, capsys):
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        shutil.copy(
            FIXTURES / "r003_wall_clock.py", target_dir / "r003_wall_clock.py"
        )
        assert reprolint_main([str(target_dir)]) == 1
        assert reprolint_main([str(target_dir), "--exit-zero"]) == 0
        captured = capsys.readouterr()
        assert "R003" in captured.out

    def test_unknown_select_rule_is_usage_error_naming_the_id(self, capsys):
        assert reprolint_main(["--select", "R999", str(FIXTURES.parent)]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "R999" in err

    def test_unknown_ignore_rule_is_usage_error_naming_the_id(self, capsys):
        assert reprolint_main(["--ignore", "R042", str(FIXTURES.parent)]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "R042" in err

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_FIXTURES:
            assert rule_id in out

    def test_output_file_flag(self, tmp_path, capsys):
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        (target_dir / "clean.py").write_text('"""Clean."""\n')
        out_file = tmp_path / "report.json"
        assert (
            reprolint_main(
                [str(target_dir), "--format", "json", "--output", str(out_file)]
            )
            == 0
        )
        assert capsys.readouterr().out == ""
        payload = json.loads(out_file.read_text())
        assert payload["findings"] == []

    def test_findings_exit_1_internal_error_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        shutil.copy(FIXTURES / "r003_wall_clock.py", target_dir / "legacy.py")
        # Findings in the tree: exit 1 ("fix your code").
        assert reprolint_main([str(target_dir), "--select", "R003"]) == 1
        capsys.readouterr()
        # A rule crashing on valid input: exit 3 ("fix the linter").
        def boom(self, ctx):
            raise RuntimeError("rule exploded")

        monkeypatch.setattr(all_rules()["R003"], "check", boom)
        assert reprolint_main([str(target_dir), "--select", "R003"]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "rule exploded" in err

    def test_exit_zero_does_not_mask_internal_error(
        self, tmp_path, capsys, monkeypatch
    ):
        target_dir = tmp_path / "sim"
        target_dir.mkdir()
        (target_dir / "mod.py").write_text('"""Anything."""\nX = 1\n')

        def boom(self, ctx):
            raise RuntimeError("still broken")

        monkeypatch.setattr(all_rules()["R003"], "check", boom)
        assert (
            reprolint_main(
                [str(target_dir), "--select", "R003", "--exit-zero"]
            )
            == 3
        )
        assert "internal error" in capsys.readouterr().err

    def test_module_entry_point_on_real_src(self):
        # The gate the CI job runs: must exit 0 on the current tree.
        proc = subprocess.run(
            [
                sys.executable, "-m", "tools.reprolint",
                "src", "tests", "tools",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_registry_complete(self):
        assert sorted(all_rules()) == sorted(RULE_FIXTURES)

    def test_contributing_ledger_lists_the_registered_rules(self):
        ledger = (REPO_ROOT / "CONTRIBUTING.md").read_text()
        listed = re.findall(r"^\| (R\d{3}) \|", ledger, flags=re.M)
        assert sorted(listed) == sorted(all_rules())
