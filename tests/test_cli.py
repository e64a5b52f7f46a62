"""Tests for the command-line entry point."""

import os
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import main
from repro.harness.experiments import e19_overload


def _subprocess_env():
    """The environment a ``python -m repro`` child needs: this tree's src."""
    repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e11" in out and "e13" in out

    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["e99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_runs_fast_experiment_small_scale(self, capsys, tmp_path):
        code = main(["e02", "--scale", "small", "--json-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "E02" in out
        assert (tmp_path / "e02.json").exists()
        # Same seed into a second directory: the manifest is a function
        # of the inputs, not of the wall clock.
        again = tmp_path / "again"
        assert main(["e02", "--scale", "small", "--json-dir", str(again)]) == 0
        assert (again / "manifest.json").read_bytes() == (
            tmp_path / "manifest.json"
        ).read_bytes()

    def test_case_insensitive_ids(self, capsys):
        assert main(["E03", "--scale", "small"]) == 0

    def test_failed_check_sets_exit_code(self, monkeypatch, capsys):
        from repro.harness import registry
        from repro.harness.result import ExperimentResult

        def fake_run(ctx):
            result = ExperimentResult("e02", "t", "d")
            result.add_check("always fails", False)
            return result

        monkeypatch.setitem(registry.EXPERIMENTS, "e02", fake_run)
        assert main(["e02", "--scale", "small"]) == 1


class TestServeCli:
    def test_serve_and_loadgen_end_to_end(self, capsys, tmp_path):
        """Boot `repro serve` in a subprocess, drive it with the
        in-process `repro loadgen`, then shut it down over the wire."""
        import json
        import re
        import subprocess
        import sys

        env = _subprocess_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scale", "small",
             "--port", "0", "--no-engine", "--duration", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        try:
            port = None
            for _ in range(50):  # banner follows the ~1s system build
                line = proc.stdout.readline()
                if not line:
                    break
                # The pattern benchmarks/perf finds the port with.
                match = re.match(r"^serving .* on [\d.]+:(\d+) ", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "serve never printed its bound port"

            code = main(["loadgen", "--port", str(port), "--rate", "40",
                         "--duration", "0.25", "--seed", "3"])
            out = capsys.readouterr().out
            assert code == 0
            outcome = json.loads(out)
            assert outcome["n_requests"] > 0
            assert outcome["n_lost"] == 0
            assert outcome["n_completed"] + outcome["n_shed"] == (
                outcome["n_requests"]
            )
            assert outcome["server_summary"]["n_cores"] > 0

            import socket

            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(b'{"id": 0, "op": "shutdown"}\n')
                s.recv(4096)
            proc.wait(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_loadgen_gives_up_on_a_silent_listener(self):
        """A socket that accepts and never answers: `repro loadgen` exits
        non-zero once its connection-setup bound (10 s) has passed."""
        import socket
        import subprocess
        import sys

        env = _subprocess_env()
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)  # the kernel accepts; nobody ever reads
            port = listener.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "loadgen", "--port", str(port),
                 "--rate", "10", "--duration", "0.2"],
                capture_output=True, text=True, env=env, timeout=30,
            )
        assert proc.returncode == 1
        assert proc.stderr.strip() == (
            f"repro loadgen: 127.0.0.1:{port} did not answer in time"
        )

    def test_livesmoke_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "report.json"
        code = main(["livesmoke", "--scale", "small", "--duration", "0.4",
                     "--output", str(out)])
        stdout = capsys.readouterr().out
        # The calibrated-band gate is the CI livesmoke step; here we pin
        # the command wiring, table output, and report artifact.
        assert code in (0, 1)
        assert "e05-light" in stdout and "e19-overload" in stdout
        report = json.loads(out.read_text())
        assert len(report["points"]) == 3


class TestTracePresets:
    def test_e19_preset_is_the_e19_overload_point(self, small_system, monkeypatch):
        # The preset and the experiment each run their overload point
        # through run_point; both calls are captured and compared.
        class Captured(Exception):
            pass

        calls = []
        idle = SimpleNamespace(shed_rate=0.0, goodput=0.0, slo_attainment=1.0,
                               p99_latency=0.0)

        def run_point(policy, rate, **kwargs):
            calls.append((policy, rate, kwargs))
            over = small_system.rate_for_utilization(e19_overload.OVER_SATURATION)
            if policy == "adaptive" and rate == over and "deadline" in kwargs:
                raise Captured
            return idle

        monkeypatch.setattr(small_system, "run_point", run_point)
        ctx = SimpleNamespace(system=small_system, sim_duration=1.0, sim_warmup=0.25)
        with pytest.raises(Captured):
            e19_overload.run(ctx)
        with pytest.raises(Captured):
            cli._trace_e19(ctx, 0)
        experiment, preset = calls[-2], calls[-1]
        assert preset[:2] == experiment[:2]
        for knob in ("deadline", "max_queue_length"):
            assert preset[2][knob] == experiment[2][knob]
