"""Tests for the markdown report generator."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.report import generate_report, load_results_dir
from repro.harness.result import ExperimentResult
from repro.util.serde import dump_json
from repro.util.tables import Table


def _write_result(tmp_path, experiment_id, passed=True):
    result = ExperimentResult(experiment_id, f"Title {experiment_id}", "desc")
    table = Table(["x", "y"], title="T")
    table.add_row([1, 2.5])
    result.add_table(table)
    result.add_check("claim", passed, "detail")
    dump_json(result.to_json(), tmp_path / f"{experiment_id}.json")


class TestReport:
    def test_report_contains_experiments_and_tables(self, tmp_path):
        _write_result(tmp_path, "e01")
        _write_result(tmp_path, "e02")
        text = generate_report(tmp_path)
        assert "E01 — Title e01" in text
        assert "E02 — Title e02" in text
        assert "| x | y |" in text
        assert "2 experiments, 2 shape checks, 2 passed / 0 failed" in text

    def test_report_includes_manifest_provenance(self, tmp_path):
        from repro.obs.export import run_manifest, write_manifest

        _write_result(tmp_path, "e01")
        write_manifest(
            run_manifest(seed=7, scale="small", config={"a": 1},
                         experiments=["e01"], extra={"traced": True}),
            tmp_path / "manifest.json",
        )
        text = generate_report(tmp_path)
        assert "Provenance" in text
        assert "- seed: `7`" in text
        assert "- scale: `small`" in text
        assert "config_hash" in text and "git_rev" in text
        assert "e01" in text

    def test_report_without_manifest_has_no_provenance(self, tmp_path):
        _write_result(tmp_path, "e01")
        assert "Provenance" not in generate_report(tmp_path)

    def test_report_flags_failures(self, tmp_path):
        _write_result(tmp_path, "e01", passed=False)
        text = generate_report(tmp_path)
        assert "1 failed" in text
        assert "❌" in text
        assert "**Failed checks:**" in text

    def test_report_written_to_file(self, tmp_path):
        _write_result(tmp_path, "e03")
        output = tmp_path / "out" / "report.md"
        generate_report(tmp_path, output)
        assert output.exists()
        assert "E03" in output.read_text(encoding="utf-8")

    def test_results_sorted_by_id(self, tmp_path):
        _write_result(tmp_path, "e10")
        _write_result(tmp_path, "e02")
        payloads = load_results_dir(tmp_path)
        assert [p["experiment_id"] for p in payloads] == ["e02", "e10"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_results_dir(tmp_path)

    def test_non_result_json_rejected(self, tmp_path):
        dump_json({"not": "a result"}, tmp_path / "e01.json")
        with pytest.raises(ConfigurationError):
            load_results_dir(tmp_path)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_results_dir(tmp_path / "nope")


class TestCliReport:
    def test_report_requires_json_dir(self, capsys):
        from repro.cli import main

        assert main(["e02", "--scale", "small", "--report", "r.md"]) == 2
        # Rejected before the loop, like --trace: nothing ran.
        assert "context:" not in capsys.readouterr().out

    def test_report_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "e02", "--scale", "small",
            "--json-dir", str(tmp_path),
            "--report", str(tmp_path / "report.md"),
        ])
        assert code == 0
        assert (tmp_path / "report.md").exists()
