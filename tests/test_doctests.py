"""Run the doctests embedded in selected public modules.

Docstring examples are part of the documentation contract; this module
executes the ones that are self-contained (no heavyweight fixtures),
and checks that the prose docs name only modules and files that exist.
"""

import doctest
import functools
import importlib
import re
from pathlib import Path

import pytest

import repro.corpus.ingest
import repro.policies.adaptive
import repro.util.rng

MODULES = [
    repro.util.rng,
    repro.policies.adaptive,
    repro.corpus.ingest,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0, f"{results.failed} doctest failure(s)"


REPO = Path(__file__).parent.parent
DOCS = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")]
DOCS += sorted((REPO / "docs").glob("*.md"))


def _resolves(dotted):
    """``dotted`` is a module, or attributes of its longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            functools.reduce(getattr, parts[cut:], target)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_docs_name_only_things_that_exist(doc):
    text = doc.read_text(encoding="utf-8")
    dotted = set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))
    for module, names in re.findall(r"from (repro[\w.]*) import (\([^)]*\)|[\w, ]+)", text):
        dotted |= {f"{module}.{name}" for name in re.findall(r"\w+", names)}
    paths = set(re.findall(r"\b(?:examples|tests|src/repro|tools)/[\w./*-]*\w", text))
    missing = sorted(name for name in dotted if not _resolves(name))
    missing += sorted(path for path in paths if not any(REPO.glob(path)))
    assert not missing, f"{doc.name} names things that do not exist: {missing}"
