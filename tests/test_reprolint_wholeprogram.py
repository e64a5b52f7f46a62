"""Whole-program reprolint tests: cross-module analyses on realistic bugs.

The single-file fixtures in ``test_reprolint.py`` pin exact finding
lines per rule; this module exercises the *cross-module* machinery —
the project model resolving imports between fixture modules — and then
mutation-tests the real tree: it copies actual ``src/repro`` files,
reintroduces a realistic reproducibility bug, and asserts the matching
rule catches it at the edited line. These are the regressions the
whole-program layer exists for:

* a seconds interval fed to a milliseconds deadline parameter across a
  module boundary (R009);
* a shared-state write outside the lock in the threaded executor
  (R012).
"""

from __future__ import annotations

import shutil
from pathlib import Path

from tools.reprolint import lint_paths
from tools.reprolint.core import FileContext
from tools.reprolint.project import ProjectModel

from test_reprolint import FIXTURES, REPO_ROOT, actual_findings, expected_findings


def _copy_tree_fixture(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def _mutated_copy(tmp_path: Path, rel_src: str, old: str, new: str) -> tuple[Path, int]:
    """Copy a real-tree file with ``old`` replaced by ``new``; return the
    copy's path and the 1-based line of the edit."""
    source = (REPO_ROOT / rel_src).read_text()
    assert old in source, f"mutation anchor missing from {rel_src}: {old!r}"
    mutated = source.replace(old, new, 1)
    target = tmp_path / Path(rel_src).relative_to("src/repro")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(mutated)
    return target, 1 + mutated[: mutated.index(new)].count("\n")


class TestCrossModuleFixtures:
    def test_r009_seconds_into_ms_deadline(self, tmp_path):
        # driver.py passes an ``interval_s`` value to server.admit's
        # ``deadline_ms`` parameter — the units flow across the import.
        tree = _copy_tree_fixture(tmp_path, "r009_crossmodule")
        result = lint_paths([str(tree)], select=["R009"])
        assert actual_findings(result) == expected_findings(
            FIXTURES / "r009_crossmodule"
        )

    def test_project_model_resolves_fixture_imports(self, tmp_path):
        # The machinery under the rules: modules under a tmp prefix must
        # still resolve each other by dotted-suffix.
        tree = _copy_tree_fixture(tmp_path, "r009_crossmodule")
        ctxs = [
            FileContext.from_source(p.read_text(), str(p))
            for p in sorted(tree.rglob("*.py"))
        ]
        project = ProjectModel.build(ctxs)
        module = project.resolve_module("sim.server")
        assert module is not None
        assert "admit" in module.functions


class TestRealTreeMutations:
    """Reintroduce realistic bugs into copies of real files."""

    def test_r009_percentile_scale_in_cluster(self, tmp_path):
        # np.percentile takes [0, 100]; 0.99 is the [0, 1] quantile
        # convention and silently returns ~p1 instead of p99.
        target, bad_line = _mutated_copy(
            tmp_path,
            "src/repro/sim/cluster.py",
            "float(np.percentile(cluster, 99))",
            "float(np.percentile(cluster, 0.99))",
        )
        result = lint_paths([str(target)], select=["R009"])
        assert [(f.line, f.rule_id) for f in result.findings] == [
            (bad_line, "R009")
        ]

    def test_r012_unlocked_merge_in_threaded_executor(self, tmp_path):
        # Removing the lock around scan.merge in the thread executor
        # leaves every shared-counter write in ChunkScan.merge racing;
        # merge is reached from the nested ``worker`` closure submitted
        # to the pool. This needs the full tree: the worker -> merge edge
        # only resolves with scan.py in the project model.
        tree = tmp_path / "repro"
        shutil.copytree(REPO_ROOT / "src/repro", tree)
        target = tree / "engine" / "threads.py"
        source = target.read_text()
        anchor = "            with lock:\n                scan.merge(outcome)"
        assert anchor in source
        target.write_text(
            source.replace(
                anchor, "            if True:\n                scan.merge(outcome)", 1
            )
        )
        result = lint_paths([str(tree)], select=["R012"])
        assert {f.rule_id for f in result.findings} == {"R012"}
        scan_lines = (tree / "engine" / "scan.py").read_text().splitlines()
        merge_def = 1 + next(
            i for i, line in enumerate(scan_lines) if "def merge(" in line
        )
        flagged = sorted(
            f.line for f in result.findings if Path(f.path).name == "scan.py"
        )
        # At minimum the three augmented counter writes in merge's body.
        assert len(flagged) >= 3
        assert all(merge_def < line <= merge_def + 7 for line in flagged)

    def test_r012_clean_on_real_threads_module(self, tmp_path):
        target = tmp_path / "engine" / "threads.py"
        target.parent.mkdir(parents=True)
        shutil.copy(REPO_ROOT / "src/repro/engine/threads.py", target)
        result = lint_paths([str(target)], select=["R012"])
        assert result.findings == []

    def test_r012_clean_on_real_tree(self, tmp_path):
        # Whole tree, so every worker -> callee edge resolves: the one
        # thread pool left is execute_threaded's, whose workers touch the
        # shared ChunkScan only under its lock and the shared ChunkTrace
        # only through the suppressed idempotent memo write.
        tree = tmp_path / "repro"
        shutil.copytree(REPO_ROOT / "src/repro", tree)
        result = lint_paths([str(tree)], select=["R012"])
        assert result.findings == []
