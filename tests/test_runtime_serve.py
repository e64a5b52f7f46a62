"""Deterministic asyncio tests for the live TCP front door.

Every test here runs the real LiveServer over real localhost TCP, but
on a FakeClock: model time only moves when the test advances it, so
entire query lifecycles — admission, degree grant, service phases,
completion, shedding — execute without a single real sleep. The only
wall time spent is socket readiness, which the event loop wakes on
immediately. ``asyncio.wait_for`` bounds are failure backstops, not
pacing. ``TestEngineInsideThePhase`` is the exception: it times, on
the wall clock, when a blocking engine run lets a phase end.
"""

import asyncio
import json
import time

import numpy as np

from repro.engine.query import Query
from repro.errors import SimulationError
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.profiles.measurement import QueryCostTable
from repro.runtime.clock import FakeClock
from repro.runtime.node import QueryOutcome, ServingConfig, ServingNode
from repro.runtime.serve import AsyncioScheduler, LiveServer, run_live
from repro.sim.oracle import ServiceOracle

#: Failure backstop for awaited reads in these tests (wall seconds);
#: the normal path resolves on the same loop iteration the server
#: writes its reply.
_IO_S = 20.0


def _table(t1s=(1.0,) * 6, degrees=(1, 2, 4), speedup=None):
    """Cost table with per-query sequential latencies ``t1s``."""
    speedup = speedup or {1: 1.0, 2: 1.8, 4: 3.0}
    t1 = np.asarray(t1s, dtype=np.float64)
    latency = np.stack([t1 / speedup[p] for p in degrees], axis=1)
    cpu = latency * np.asarray(degrees)[None, :]
    chunks = np.ones((len(t1s), len(degrees)), dtype=np.int64)
    queries = [Query.of([0], query_id=i) for i in range(len(t1s))]
    return QueryCostTable(queries, degrees, latency, cpu, chunks)


def _node(clock, policy=None, table=None, engine_search=None, **config):
    config.setdefault("n_cores", 4)
    config.setdefault("horizon_s", 1000.0)
    return ServingNode(
        clock,
        ServiceOracle(table if table is not None else _table()),
        policy if policy is not None else FixedPolicy(2),
        ServingConfig(**config),
        engine_search=engine_search,
    )


async def _yield_until(predicate, rounds=2000):
    """Spin the event loop (zero-delay yields only) until ``predicate``
    holds; returns whether it ever did."""
    for _ in range(rounds):
        if predicate():
            return True
        await asyncio.sleep(0)
    return predicate()


class _Client:
    """Line-oriented JSON client for one test connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), timeout=_IO_S
        )
        return cls(reader, writer)

    async def send(self, payload):
        if isinstance(payload, (bytes, bytearray)):
            self.writer.write(bytes(payload))
        else:
            self.writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await asyncio.wait_for(self.writer.drain(), timeout=_IO_S)

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=_IO_S)
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def ask(self, payload):
        await self.send(payload)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), timeout=_IO_S)
        except (asyncio.TimeoutError, OSError):
            pass


async def _boot(node, **server_kwargs):
    server_kwargs.setdefault("request_budget_s", 100_000.0)
    service = LiveServer(node, **server_kwargs)
    serve_task = asyncio.get_running_loop().create_task(service.serve("127.0.0.1", 0))
    port = await service.wait_ready()
    return service, serve_task, port


async def _shutdown(service, serve_task, *clients):
    for client in clients:
        await client.close()
    service.request_shutdown()
    await asyncio.wait_for(serve_task, timeout=_IO_S)


class TestControlOps:
    def test_ping_reports_fake_time(self):
        async def scenario():
            clock = FakeClock()
            clock.advance_to(3.5)
            service, serve_task, port = await _boot(_node(clock))
            client = await _Client.connect(port)
            reply = await client.ask({"id": 1, "op": "ping"})
            assert reply == {"id": 1, "ok": True, "op": "ping", "now_s": 3.5}
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_stats_counters_and_summary(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            reply = await client.ask({"id": 2, "op": "stats"})
            assert reply["ok"] and reply["op"] == "stats"
            assert reply["n_queries"] == 6
            assert reply["n_cores"] == 4
            assert reply["policy"] == "fixed-2"
            assert reply["n_answered"] == 0
            assert "summary" not in reply
            reply = await client.ask({"id": 3, "op": "stats", "rate": 5.0})
            assert reply["summary"]["policy"] == "fixed-2"
            assert reply["summary"]["rate"] == 5.0
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_shutdown_op_stops_serving(self):
        async def scenario():
            clock = FakeClock()
            service, serve_task, port = await _boot(_node(clock))
            client = await _Client.connect(port)
            reply = await client.ask({"id": 4, "op": "shutdown"})
            assert reply["ok"]
            await client.close()
            await asyncio.wait_for(serve_task, timeout=_IO_S)

        run_live(scenario())

    def test_shutdown_hangs_up_idle_connections_quietly(self):
        # Open connections are closed by serve() itself, so their
        # handlers return instead of being cancelled by loop teardown
        # (which logs one "Exception in callback" block per connection).
        async def scenario():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
            service, serve_task, port = await _boot(_node(FakeClock()))
            idle = await _Client.connect(port)
            assert (await idle.ask({"id": 1, "op": "ping"}))["ok"]
            service.request_shutdown()
            await asyncio.wait_for(serve_task, timeout=_IO_S)
            assert await asyncio.wait_for(idle.reader.read(), timeout=_IO_S) == b""
            await idle.close()
            return logged

        assert run_live(scenario()) == []


class TestBadRequests:
    def test_bad_json_unknown_op_bad_index_bad_budget(self):
        async def scenario():
            clock = FakeClock()
            service, serve_task, port = await _boot(_node(clock))
            client = await _Client.connect(port)

            reply = await client.ask(b"this is not json\n")
            assert reply == {"id": None, "ok": False, "error": "bad-json"}

            reply = await client.ask(b"[1, 2, 3]\n")
            assert reply["error"] == "bad-json"

            reply = await client.ask({"id": 5, "op": "frobnicate"})
            assert not reply["ok"] and "unknown-op" in reply["error"]

            reply = await client.ask({"id": 6, "op": "search", "query_index": 99})
            assert not reply["ok"] and "bad-query-index" in reply["error"]

            reply = await client.ask({"id": 7, "op": "search"})
            assert not reply["ok"] and "bad-query-index" in reply["error"]

            reply = await client.ask(
                {"id": 8, "op": "search", "query_index": 0, "budget_s": -1}
            )
            assert reply == {"id": 8, "ok": False, "error": "bad-budget"}
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_over_long_line_gets_typed_reply_then_hangup(self):
        # A line past the stream limit (64 KiB) loses the framing: the
        # client gets a typed reply, not an empty read, that connection
        # is abandoned, and the others keep being served.
        async def scenario():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
            service, serve_task, port = await _boot(_node(FakeClock()))
            client = await _Client.connect(port)
            other = await _Client.connect(port)
            reply = await client.ask(b"x" * 200_000 + b"\n")
            assert reply == {"id": None, "ok": False, "error": "line-too-long"}
            await client.send({"id": 9, "op": "ping"})  # never answered
            client.writer.write_eof()
            assert await asyncio.wait_for(client.reader.read(), timeout=_IO_S) == b""
            assert (await other.ask({"id": 10, "op": "ping"}))["ok"]
            await _shutdown(service, serve_task, client, other)
            return logged

        assert run_live(scenario()) == []


class TestSearchLifecycle:
    def test_search_completes_when_clock_advances(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            await client.send({"id": 10, "op": "search", "query_index": 1})
            # The query is dispatched once the server task runs; its
            # service phases live on the FakeClock.
            assert await _yield_until(lambda: clock.pending > 0)
            assert node.server.n_running == 1
            clock.drain()
            reply = await client.recv()
            assert reply["id"] == 10 and reply["ok"]
            assert reply["status"] == "completed"
            assert reply["query_index"] == 1
            assert reply["degree"] == 2
            # Constant table: t1=1.0 at degree 2 with speedup 1.8.
            assert abs(reply["latency_s"] - 1.0 / 1.8) < 1e-9
            assert node.n_answered == 1
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_replies_out_of_order_across_queries(self):
        """Each search is its own task: a fast query submitted second
        must answer first, keyed by request id."""
        async def scenario():
            clock = FakeClock()
            node = _node(clock, policy=SequentialPolicy(),
                         table=_table(t1s=(5.0, 1.0)))
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            await client.send({"id": "slow", "op": "search", "query_index": 0})
            await client.send({"id": "fast", "op": "search", "query_index": 1})
            assert await _yield_until(lambda: node.server.n_running == 2)
            clock.drain()
            first = await client.recv()
            second = await client.recv()
            assert [first["id"], second["id"]] == ["fast", "slow"]
            assert first["latency_s"] == 1.0
            assert second["latency_s"] == 5.0
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_admission_shed_replies_without_clock_advance(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock, policy=SequentialPolicy(), n_cores=1,
                         max_queue_length=1)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            for i in range(3):
                await client.send(
                    {"id": i, "op": "search", "query_index": 0}
                )
            # Third query: one running, one queued, queue cap 1 -> shed
            # synchronously at admission; its reply needs no time.
            reply = await client.recv()
            assert reply["id"] == 2
            assert reply["status"] == "shed"
            assert reply["shed_reason"]
            assert clock.now == 0.0
            clock.drain()
            replies = [await client.recv(), await client.recv()]
            assert sorted(r["id"] for r in replies) == [0, 1]
            assert all(r["status"] == "completed" for r in replies)
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_deadline_shed_reply_carries_the_wait(self):
        """A query shed at dispatch answers with its own arrival time, so
        its reply's latency is the wait it was shed after, not 0."""
        async def scenario():
            clock = FakeClock()
            # One core, t1 = 1 s, 1.5 s budget: the second query waits
            # for the first and is shed at t = 1 (wait 1 + t1 1 > 1.5).
            node = _node(clock, policy=SequentialPolicy(), n_cores=1,
                         deadline_s=1.5)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            await client.send({"id": "served", "op": "search", "query_index": 0})
            await client.send({"id": "shed", "op": "search", "query_index": 1})
            assert await _yield_until(lambda: node.server.queue_length == 1)
            clock.drain()
            replies = {reply["id"]: reply for reply in
                       [await client.recv(), await client.recv()]}
            shed = replies["shed"]
            assert (shed["status"], shed["shed_reason"]) == ("shed", "deadline")
            assert (shed["arrival_s"], shed["finished_s"], shed["latency_s"]) == (
                0.0, 1.0, 1.0
            )
            assert replies["served"]["latency_s"] == 1.0
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_request_budget_timeout(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            # Tiny budget, never advance the clock: the wall wait_for
            # expires on the next loop pass.
            reply = await client.ask(
                {"id": 11, "op": "search", "query_index": 0, "budget_s": 1e-9}
            )
            assert reply == {"id": 11, "ok": False, "error": "timeout"}
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_engine_results_round_trip(self):
        calls = []

        def fake_search(query_index, degree):
            calls.append((query_index, degree))
            return ((17, 0.9), (4, 0.5))

        async def scenario():
            clock = FakeClock()
            node = _node(clock, engine_search=fake_search)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            await client.send({"id": 12, "op": "search", "query_index": 3})
            assert await _yield_until(lambda: clock.pending > 0)
            # The engine ran when the phase started, before it ended.
            assert calls == [(3, 2)]
            clock.drain()
            reply = await client.recv()
            assert reply["results"] == [[17, 0.9], [4, 0.5]]
            assert calls == [(3, 2)]
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_two_connections_counted_once(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            a = await _Client.connect(port)
            b = await _Client.connect(port)
            await a.send({"id": 1, "op": "search", "query_index": 0})
            await b.send({"id": 2, "op": "search", "query_index": 1})
            assert await _yield_until(lambda: node.server.n_running == 2)
            clock.drain()
            ra = await a.recv()
            rb = await b.recv()
            assert ra["id"] == 1 and rb["id"] == 2
            assert node.n_answered == 2
            await _shutdown(service, serve_task, a, b)

        run_live(scenario())


class TestNodeDirect:
    def test_on_done_fires_exactly_once(self):
        clock = FakeClock()
        node = _node(clock)
        outcomes = []
        node.submit(0, on_done=outcomes.append)
        assert outcomes == []
        clock.drain()
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert isinstance(outcome, QueryOutcome)
        assert outcome.status == "completed"
        assert outcome.latency_s == outcome.finished_s - outcome.arrival_s

    def test_shed_outcome_synchronous(self):
        clock = FakeClock()
        node = _node(clock, policy=SequentialPolicy(), n_cores=1,
                     max_queue_length=1)
        outcomes = []
        for _ in range(3):
            node.submit(0, on_done=outcomes.append)
        assert [o.status for o in outcomes] == ["shed"]
        assert outcomes[0].shed_reason
        clock.drain()
        assert sorted(o.status for o in outcomes) == [
            "completed", "completed", "shed"
        ]

    def test_dispatch_shed_outcome_keeps_its_arrival(self):
        # Shed at t = 1 after arriving at t = 0: the outcome's latency is
        # the second it waited (one core, t1 = 1 s, 1.5 s budget).
        clock = FakeClock()
        node = _node(clock, policy=SequentialPolicy(), n_cores=1, deadline_s=1.5)
        outcomes = []
        node.submit(0, on_done=outcomes.append)
        node.submit(1, on_done=outcomes.append)
        clock.drain()
        assert [(o.query_index, o.status, o.arrival_s, o.finished_s, o.latency_s)
                for o in outcomes] == [
            (0, "completed", 0.0, 1.0, 1.0), (1, "shed", 0.0, 1.0, 1.0),
        ]

    def test_summary_uses_shared_schema(self):
        clock = FakeClock()
        node = _node(clock, warmup_s=0.0, horizon_s=10.0)
        node.submit(0)
        node.submit(1)
        clock.drain()
        summary = node.summary(rate=2.0)
        assert summary.observed == 2
        assert summary.policy == "fixed-2"
        assert summary.n_cores == 4


class TestEngineInsideThePhase:
    """On a wall clock, the only tests here that take real time."""

    @staticmethod
    def _serve_one(t1_s, engine_s):
        """One query on a node on ``run_live``'s loop: a ``t1_s`` phase
        and an engine that blocks the loop for ``engine_s``; returns the
        wall seconds from submit to outcome, and the outcome."""

        def search(query_index, degree):
            time.sleep(engine_s)
            return ((7, 0.5),)

        async def scenario():
            node = _node(AsyncioScheduler(), policy=SequentialPolicy(),
                         table=_table(t1s=(t1_s,)), engine_search=search)
            done = asyncio.get_running_loop().create_future()
            began = time.perf_counter()
            node.submit(0, on_done=done.set_result)
            outcome = await asyncio.wait_for(done, timeout=_IO_S)
            return time.perf_counter() - began, outcome

        return run_live(scenario())

    def test_a_reply_comes_after_the_longer_of_phase_and_engine(self):
        # 100 ms phase, 80 ms engine: after their sum (>= 180 ms) when
        # the engine follows the phase, ~100 ms when it runs inside it.
        # The bound leaves room for host stalls of tens of ms.
        elapsed, outcome = self._serve_one(0.100, 0.080)
        assert outcome.results == ((7, 0.5),)
        assert outcome.latency_s >= 0.099
        assert elapsed < 0.150

    def test_an_engine_longer_than_the_phase_delays_its_end(self):
        # The phase end is due at 20 ms but the loop is blocked until
        # the 80 ms engine run returns, and the reply's latency shows it.
        elapsed, outcome = self._serve_one(0.020, 0.080)
        assert outcome.results == ((7, 0.5),)
        assert outcome.latency_s >= 0.079
        assert elapsed >= 0.079


class TestAsyncioScheduler:
    def test_now_advances_with_loop(self):
        async def scenario():
            scheduler = AsyncioScheduler()
            assert scheduler.now >= 0.0
            fired = []
            scheduler.schedule(0.0, lambda: fired.append(scheduler.now))
            assert await _yield_until(lambda: fired)
            assert fired[0] >= 0.0

        run_live(scenario())

    def test_schedule_passes_arguments(self):
        async def scenario():
            scheduler = AsyncioScheduler()
            fired = []
            scheduler.schedule(0.0, lambda *args: fired.append(args), "a", "b")
            assert await _yield_until(lambda: fired)
            return fired

        assert run_live(scenario()) == [("a", "b")]

    def test_negative_delay_rejected(self):
        async def scenario():
            scheduler = AsyncioScheduler()
            try:
                scheduler.schedule(-0.5, lambda: None)
            except SimulationError:
                return True
            return False

        assert run_live(scenario())
