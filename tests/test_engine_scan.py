"""The claim–stop–merge protocol seam (:mod:`repro.engine.scan`).

The executors' behaviour is pinned by the equivalence, bit-identity and
golden tests; these tests pin the seam they all drive — the transition
contracts of :class:`ChunkScan` — and guard structurally against a
fourth driver quietly re-copying the loop instead of driving the scan, or
a production path scoring outside the trace.
"""

from __future__ import annotations

import ast
import sys
import time
from pathlib import Path

import pytest

from repro.engine.executor import Engine, EngineConfig
from repro.engine.scan import ChunkScan
from repro.engine.termination import TerminationConfig, TerminationState
from repro.engine.trace import FIRST_WAVE, MAX_WAVE

SCORE_BOUND = TerminationConfig(match_budget=None, use_score_bound=True)
ENGINE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro" / "engine"


def _drive(scan, plan):
    """Run the scan to completion in lockstep; return claimed positions."""
    claimed = []
    position = scan.claim()
    while position >= 0:
        claimed.append(position)
        scan.merge(plan.score_chunk(position))
        position = scan.claim()
    return claimed


@pytest.fixture(scope="module")
def plans(small_engine, sample_queries):
    return [small_engine.plan(query) for query in sample_queries]


@pytest.fixture(scope="module")
def longest_plan(plans):
    return max(plans, key=lambda plan: plan.n_candidate_chunks)


class TestChunkScanTransitions:
    @pytest.mark.parametrize(
        "termination",
        [TerminationConfig(), TerminationConfig(match_budget=8), SCORE_BOUND],
        ids=["default", "tight_budget", "score_bound"],
    )
    def test_stop_latches(self, plans, termination):
        for plan in plans[:20]:
            scan = ChunkScan(plan, termination)
            assert not scan.stopped
            _drive(scan, plan)
            assert scan.stopped
            latched = (scan.state.fired_rule, scan.position)
            assert scan.claim() == -1
            # A late merge (a worker that was mid-chunk at the stop) must
            # not reopen the scan or change which rule fired.
            if plan.n_candidate_chunks:
                scan.merge(plan.score_chunk(0))
            assert scan.claim() == -1
            assert (scan.state.fired_rule, scan.position) == latched

    def test_safe_rules_account_for_every_candidate(self, plans):
        # Every candidate is either evaluated, in claim order, or cut off
        # by the stop rule; the cursor ends where the rule fired.
        for plan in plans:
            scan = ChunkScan(plan, SCORE_BOUND)
            claimed = _drive(scan, plan)
            assert claimed == list(range(scan.chunks_evaluated))
            assert scan.position == scan.chunks_evaluated
            exhausted = scan.state.fired_rule == "exhausted"
            assert exhausted == (scan.position == plan.n_candidate_chunks)

    def test_result_carries_scan_state_and_driver_timing(self, longest_plan):
        scan = ChunkScan(longest_plan, SCORE_BOUND)
        _drive(scan, longest_plan)
        result = scan.result(
            degree=3, latency=2.0, cpu_time=5.0, worker_busy=(1.0, 1.5, 2.0)
        )
        assert (result.degree, result.latency, result.cpu_time) == (3, 2.0, 5.0)
        assert result.worker_busy == (1.0, 1.5, 2.0)
        assert result.query is longest_plan.query
        assert result.doc_ids == scan.topk.doc_ids()
        assert result.chunks_evaluated == scan.chunks_evaluated > 0
        assert result.postings_scanned == scan.postings_scanned
        assert result.docs_matched == scan.docs_matched
        assert result.termination_rule == scan.state.fired_rule


class TestThreadedDriver:
    def test_no_lost_updates_under_contention(
        self, small_workbench, sample_queries, monkeypatch
    ):
        # More workers than cores, a near-zero switch interval, and a GIL
        # release *inside* the claim (between reading and advancing the
        # cursor): without the executor's lock two workers claim the same
        # position on nearly every run. With every rule off each
        # candidate chunk must be claimed and merged exactly once, so a
        # lost cursor or counter update shows as a count mismatch.
        should_stop = TerminationState.should_stop

        def yielding_should_stop(state, position):
            time.sleep(0)
            return should_stop(state, position)

        monkeypatch.setattr(TerminationState, "should_stop", yielding_should_stop)
        exhaustive = TerminationConfig(match_budget=None, use_score_bound=False)
        engine = Engine(small_workbench.index, EngineConfig(termination=exhaustive))
        queries = sorted(
            sample_queries[:30],
            key=lambda query: engine.plan(query).n_candidate_chunks,
        )[-5:]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for query in queries:
                sequential = engine.execute(query, 1)
                threaded = engine.execute_threaded(query, 8)
                assert threaded.chunks_evaluated == sequential.chunks_evaluated
                assert threaded.postings_scanned == sequential.postings_scanned
                assert threaded.docs_matched == sequential.docs_matched
                assert threaded.doc_ids == sequential.doc_ids
        finally:
            sys.setswitchinterval(interval)


class TestOneLoop:
    """Only ``scan.py`` may spell out the protocol."""

    @staticmethod
    def _call_sites(name):
        """``{file name: [enclosing function, ...]}`` of calls to ``name``
        (as a bare name or an attribute) under ``src/repro/engine``."""
        sites = {}
        for path in sorted(ENGINE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = node.func
                    called = getattr(callee, "attr", getattr(callee, "id", None))
                    if called == name:
                        sites.setdefault(path.name, []).append(function.name)
        return sites

    @pytest.mark.parametrize(
        "name, allowed",
        [
            ("TerminationState", {"scan.py": ["__init__"]}),
            ("should_stop", {"scan.py": ["claim"]}),
            ("ExecutionResult", {"scan.py": ["result"]}),
        ],
    )
    def test_protocol_calls_live_only_in_the_scan(self, name, allowed):
        assert self._call_sites(name) == allowed


class TestOneKernel:
    """Production scores through ``score_chunks`` only, from one call
    site; ``score_chunk`` and its helpers are the tests' reference."""

    @staticmethod
    def _call_sites(name):
        """``{path under src/repro: [enclosing function, ...]}`` of calls
        to ``name`` (as a bare name or an attribute)."""
        sites = {}
        for path in sorted(ENGINE_DIR.parent.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = node.func
                    called = getattr(callee, "attr", getattr(callee, "id", None))
                    if called == name:
                        key = path.relative_to(ENGINE_DIR.parent).as_posix()
                        sites.setdefault(key, []).append(function.name)
        return sites

    @pytest.mark.parametrize(
        "name, allowed",
        [
            ("score_chunk", {}),
            ("_intersect", {"engine/plan.py": ["score_chunk"]}),
            ("_accumulate", {"engine/plan.py": ["score_chunk"]}),
            ("score_chunks", {"engine/trace.py": ["get"]}),
        ],
    )
    def test_kernel_calls_live_only_where_waves_are_formed(self, name, allowed):
        assert self._call_sites(name) == allowed

    def test_wave_widths_are_spelled_once(self):
        # The first block's width and the cap: as integer literals they
        # appear in the module that lays out the blocks and nowhere else
        # in the engine.
        assert (FIRST_WAVE, MAX_WAVE) == (4, 64)
        spelled = {
            path.name
            for path in ENGINE_DIR.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.value in (FIRST_WAVE, MAX_WAVE)
        }
        assert spelled == {"trace.py"}
