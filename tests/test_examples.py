"""Smoke tests for the examples directory.

Every example is compiled. ``FAST_EXAMPLES`` (``quickstart.py``,
``search_your_docs.py``) are also executed end-to-end as subprocesses,
so a public-API change that breaks one fails the suite rather than a
user. The other three — ``bursty_load.py`` (≈ 19 s),
``policy_playground.py`` (≈ 17 s), ``capacity_planning.py`` (≈ 76 s) — are only
compiled here; CI's ``experiments`` job executes them on every push.
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples cheap enough to execute in the unit-test suite.
FAST_EXAMPLES = ["search_your_docs.py", "quickstart.py"]


def test_examples_directory_populated():
    assert {p.name for p in ALL_EXAMPLES} == {
        "bursty_load.py",
        "capacity_planning.py",
        "policy_playground.py",
        "quickstart.py",
        "search_your_docs.py",
    }


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"
