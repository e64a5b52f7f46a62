"""Tests for ``tools/pairs_table.py`` on synthetic paired-run outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs_table.py"
SPEC = importlib.util.spec_from_file_location("pairs_table", TOOL)
pairs_table = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs_table)

METRICS = [
    row["name"] for row in json.loads(pairs_table.SPEC.read_text())["end_to_end"]
]

STALLED = """engine-single  setup_s  1.0  s
Traceback (most recent call last):
  File "benchmarks/perf/run.py", line 210, in <module>
    raise ValueError("no round survived")
ValueError: no round survived
"""

CHAINED = """Traceback (most recent call last):
  File "x.py", line 1, in <module>
KeyError: 'a'

During handling of the above exception, another exception occurred:

Traceback (most recent call last):
  File "x.py", line 3, in <module>
RuntimeError: shard missing
"""


def write_run(directory, pair, side, setup_s, digest="abc"):
    metrics = {name: {"value": 1.0} for name in METRICS}
    metrics["setup_s"] = {"value": setup_s}
    lines = [
        f"engine-single  digest point0  {digest}",
        json.dumps({"metrics": metrics, "failed": 0, "attempted": 100}),
    ]
    (directory / f"{pair}-{side}.out").write_text("\n".join(lines) + "\n")


def table(directory, capsys):
    status = pairs_table.main(["pairs_table.py", str(directory)])
    out, err = capsys.readouterr()
    return status, out, err


class TestFailureCause:
    def test_stalled_host_is_labelled(self, tmp_path):
        path = tmp_path / "1-change.failed"
        path.write_text(STALLED)
        cause = pairs_table.failure_cause(path)
        assert cause.startswith("ValueError: no round survived")
        assert "stalled host" in cause

    def test_last_exception_of_a_chain(self, tmp_path):
        path = tmp_path / "1-ref.failed"
        path.write_text(CHAINED)
        assert pairs_table.failure_cause(path) == "RuntimeError: shard missing"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("metric names out of step\n\n", "last line: metric names out of step"),
            ("", "(empty output)"),
        ],
    )
    def test_no_exception_line(self, tmp_path, text, expected):
        path = tmp_path / "2-ref.failed"
        path.write_text(text)
        cause = pairs_table.failure_cause(path)
        assert cause.startswith("no exception line") and cause.endswith(expected)


class TestTable:
    def test_pairs_won_digests_and_failed_runs(self, tmp_path, capsys):
        for pair in (1, 2, 3):
            write_run(tmp_path, pair, "ref", setup_s=3.0 + pair / 10)
            write_run(tmp_path, pair, "change", setup_s=1.5, digest="abc")
        write_run(tmp_path, 4, "ref", setup_s=3.0)
        (tmp_path / "4-change.failed").write_text(STALLED)
        write_run(tmp_path, 5, "change", setup_s=1.5)
        (tmp_path / "5-ref.failed").write_text(CHAINED)
        status, out, _ = table(tmp_path, capsys)
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("3 pairs;")
        setup = next(line for line in lines if line.startswith("setup_s"))
        assert "3/3" in setup and setup.split()[-1] == "yes"
        failed_share = next(line for line in lines if line.startswith("failed_share"))
        assert "0/3" in failed_share
        assert "digest lines equal in 3 of 3 pairs" in out
        assert lines[-3:] == [
            "failed runs: ref pair 5; change pair 4",
            "  ref pair 5: RuntimeError: shard missing",
            "  change pair 4: ValueError: no round survived "
            "(stalled host: reduce_rounds kept no round)",
        ]

    def test_unequal_digests_are_counted(self, tmp_path, capsys):
        write_run(tmp_path, 1, "ref", setup_s=2.0)
        write_run(tmp_path, 1, "change", setup_s=2.0, digest="def")
        status, out, _ = table(tmp_path, capsys)
        assert status == 0
        assert "digest lines equal in 0 of 1 pairs" in out
        assert out.splitlines()[-1] == "failed runs: ref none; change none"

    def test_no_complete_pair(self, tmp_path, capsys):
        write_run(tmp_path, 1, "ref", setup_s=2.0)
        (tmp_path / "1-change.failed").write_text(STALLED)
        status, out, err = table(tmp_path, capsys)
        assert status == 1 and out == ""
        assert err.splitlines() == [
            "no complete pair",
            "failed runs: ref none; change pair 1",
            "  change pair 1: ValueError: no round survived "
            "(stalled host: reduce_rounds kept no round)",
        ]

    def test_usage(self, capsys):
        assert pairs_table.main(["pairs_table.py"]) == 2
        assert "pairs_table.py DIR" in capsys.readouterr().err
