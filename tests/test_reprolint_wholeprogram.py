"""Whole-program reprolint tests: cross-module analyses on realistic bugs.

The single-file fixtures in ``test_reprolint.py`` pin exact finding
lines per rule; this module exercises the *cross-module* machinery —
the project model resolving imports between fixture modules — and then
mutation-tests the real tree: it copies actual ``src/repro`` files,
reintroduces a realistic reproducibility bug, and asserts the matching
rule catches it at the edited line. These are the regressions the
whole-program layer exists for: a shared-state write outside the lock
in the threaded executor (R012).
"""

from __future__ import annotations

import shutil
from pathlib import Path

from tools.reprolint import lint_paths
from tools.reprolint.core import FileContext
from tools.reprolint.project import ProjectModel

from test_reprolint import FIXTURES, REPO_ROOT


def _copy_tree_fixture(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


class TestCrossModuleFixtures:
    def test_project_model_resolves_fixture_imports(self, tmp_path):
        # The machinery under the rules: modules under a tmp prefix must
        # still resolve each other by dotted-suffix.
        tree = _copy_tree_fixture(tmp_path, "r014_layering")
        ctxs = [
            FileContext.from_source(p.read_text(), str(p))
            for p in sorted(tree.rglob("*.py"))
        ]
        project = ProjectModel.build(ctxs)
        module = project.resolve_module("r014_layering.util_mod")
        assert module is not None
        assert "clamp" in module.functions


class TestRealTreeMutations:
    """Reintroduce realistic bugs into copies of real files."""

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
