"""Wall-clock tier: load generator, live smoke points, smoke harness.

Unlike the FakeClock tests these spend real (but small — fractions of
a second of model time) wall time: they boot the asyncio server on an
AsyncioScheduler and replay scripts through real TCP. Assertions are
structural (every request answered, schema shape, conservation of
queries) or run through wide tolerance bands, so a loaded CI machine
cannot flake them.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.engine.query import Query
from repro.harness.context import ExperimentContext, Scale
from repro.harness.live import (
    engine_search_for,
    run_live_smoke,
    scaled_smoke_system,
    smoke_points,
)
from repro.policies.fixed import FixedPolicy
from repro.profiles.measurement import QueryCostTable
from repro.runtime.loadgen import ReplayOptions, replay_open_loop, run_closed_loop
from repro.runtime.node import ServingConfig, ServingNode
from repro.runtime.parity import DEFAULT_TOLERANCES
from repro.runtime.serve import AsyncioScheduler, LiveServer, run_live
from repro.runtime.smoke import run_live_point
from repro.sim.experiment import LoadPointConfig
from repro.sim.oracle import ServiceOracle
from repro.sim.script import ScriptedArrival, build_arrival_script


def _fast_table(n_queries=8, t1=0.01, degrees=(1, 2, 4)):
    speedup = {1: 1.0, 2: 1.8, 4: 3.0}
    latency = np.stack(
        [np.full(n_queries, t1 / speedup[p]) for p in degrees], axis=1
    )
    cpu = latency * np.asarray(degrees)[None, :]
    chunks = np.ones((n_queries, len(degrees)), dtype=np.int64)
    queries = [Query.of([0], query_id=i) for i in range(n_queries)]
    return QueryCostTable(queries, degrees, latency, cpu, chunks)


async def _boot_live(oracle, policy, **config):
    config.setdefault("n_cores", 4)
    config.setdefault("horizon_s", 100.0)
    scheduler = AsyncioScheduler()
    node = ServingNode(scheduler, oracle, policy, ServingConfig(**config))
    service = LiveServer(node, request_budget_s=30.0)
    serve_task = asyncio.get_running_loop().create_task(
        service.serve("127.0.0.1", 0)
    )
    port = await service.wait_ready()
    return node, service, serve_task, port


class TestLoadgen:
    def test_open_loop_replay_answers_every_request(self):
        async def scenario():
            oracle = ServiceOracle(_fast_table())
            node, service, serve_task, port = await _boot_live(
                oracle, FixedPolicy(2)
            )
            script = [
                ScriptedArrival(0.01 * i, i % oracle.n_queries)
                for i in range(20)
            ]
            replies = await replay_open_loop(
                "127.0.0.1", port, script, ReplayOptions(reply_timeout_s=30.0)
            )
            service.request_shutdown()
            await asyncio.wait_for(serve_task, timeout=10.0)
            return node, replies

        node, replies = run_live(scenario())
        assert len(replies) == 20
        assert all(r is not None for r in replies)
        assert all(r["status"] == "completed" for r in replies)
        # Replies are returned in script order regardless of completion
        # order.
        assert [r["query_index"] for r in replies] == [
            i % 8 for i in range(20)
        ]
        assert node.n_answered == 20

    def test_failed_replay_leaves_no_task_behind(self):
        async def scenario():
            # A listener that accepts and never answers; the replay is
            # cancelled while it waits for its first send to fall due.
            silent = await asyncio.start_server(
                lambda reader, writer: None, "127.0.0.1", 0
            )
            port = silent.sockets[0].getsockname()[1]
            replay = asyncio.ensure_future(replay_open_loop(
                "127.0.0.1", port, [ScriptedArrival(30.0, 0)], ReplayOptions()
            ))
            await asyncio.sleep(0.05)
            replay.cancel()
            with pytest.raises(asyncio.CancelledError):
                await replay
            left = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            silent.close()
            return left

        assert run_live(scenario()) == []

    def test_closed_loop_round_robin(self):
        async def scenario():
            oracle = ServiceOracle(_fast_table())
            node, service, serve_task, port = await _boot_live(
                oracle, FixedPolicy(2)
            )
            script = [ScriptedArrival(0.0, i) for i in range(6)]
            per_client = await run_closed_loop(
                "127.0.0.1", port, script, n_clients=2,
                options=ReplayOptions(reply_timeout_s=30.0),
            )
            service.request_shutdown()
            await asyncio.wait_for(serve_task, timeout=10.0)
            return node, per_client

        node, per_client = run_live(scenario())
        assert len(per_client) == 2
        assert sum(len(chunk) for chunk in per_client) == 6
        flat = [r for chunk in per_client for r in chunk if r]
        assert all(r["status"] == "completed" for r in flat)
        assert node.n_answered == 6


class TestRunLivePoint:
    def test_conserves_queries_and_matches_schema(self):
        oracle = ServiceOracle(_fast_table())
        config = LoadPointConfig(rate=60.0, duration=0.5, warmup=0.1,
                                 n_cores=4, seed=1)
        script = build_arrival_script(oracle.n_queries, config)
        summary, node = run_live(
            run_live_point(oracle, FixedPolicy(2), config, script,
                           dilation=2.0)
        )
        # Open-loop replay awaits every reply: each scripted query was
        # either answered or shed by the time it returns.
        assert node.n_answered + node.server.n_shed == len(script)
        assert node.server.n_shed == 0
        assert summary.policy == "fixed-2"
        assert summary.observed > 0
        assert summary.mean_latency > 0


class TestSmokeHarness:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(scale=Scale.SMALL, seed=0)

    def test_scaled_smoke_system_preserves_shape(self, context):
        system = context.system
        scaled, factor = scaled_smoke_system(system)
        assert factor > 1.0
        table, orig = scaled.cost_table, system.cost_table
        assert np.mean(table.sequential_latencies()) == pytest.approx(0.025)
        # Uniform scaling: every speedup ratio survives.
        assert np.allclose(table.latency, orig.latency * factor)
        assert np.allclose(table.cpu, orig.cpu * factor)
        assert table.degrees == orig.degrees
        # Utilization math rescales consistently.
        assert scaled.saturation_rate == pytest.approx(
            system.saturation_rate / factor
        )
        # Already-slow systems pass through untouched.
        same, factor2 = scaled_smoke_system(scaled)
        assert same is scaled and factor2 == 1.0

    def test_smoke_points_cover_light_heavy_overload(self, context):
        system, _ = scaled_smoke_system(context.system)
        points = smoke_points(system, duration_s=1.0, warmup_s=0.25)
        assert [p.name for p in points] == [
            "e05-light", "e05-heavy", "e19-overload"
        ]
        light, heavy, overload = points
        assert light.config.rate < heavy.config.rate < overload.config.rate
        assert light.config.deadline is None
        assert overload.config.deadline is not None
        assert overload.config.max_queue_length == 32 * system.n_cores

    def test_engine_search_hook_returns_ranked_results(self, context):
        search = engine_search_for(context.system)
        results = search(0, 2)
        assert 0 < len(results) <= context.system.cost_table.queries[0].k
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_run_live_smoke_report_schema(self, context, tmp_path):
        out = tmp_path / "live_parity.json"
        # This test pins the machinery and report schema, not the verdict
        # (a 0.4 s point is too short for the calibrated bands); the
        # band validation is the CI livesmoke step.
        report, ok = run_live_smoke(
            context=context, duration_s=0.4, dilation=2.0, seed=0,
            output=str(out),
        )
        assert report["ok"] is ok == all(p["ok"] for p in report["points"])
        assert report["time_scale"] > 1.0
        assert [p["point"] for p in report["points"]] == [
            "e05-light", "e05-heavy", "e19-overload"
        ]
        for point in report["points"]:
            assert point["n_arrivals"] > 0
            assert set(point["metrics"]) == set(DEFAULT_TOLERANCES)
            assert point["sim_summary"]["policy"] == "adaptive"
            assert point["live_summary"]["policy"] == "adaptive"
        on_disk = json.loads(out.read_text())
        assert on_disk["points"][0]["point"] == "e05-light"
        assert on_disk["tolerances"] == DEFAULT_TOLERANCES
