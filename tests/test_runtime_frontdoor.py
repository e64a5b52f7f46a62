"""The behaviours the protocol-shaped front door defines.

``test_runtime_serve.py`` pins what a well-behaved client sees; this
file pins what the one-``asyncio.Protocol``-per-connection shape owes a
badly behaved one — a reader that never reads, a client that vanishes
or half-closes mid-query, a budget that expires in the same loop pass
its query completes, JSON that is valid but not a request — and the
shape itself: no task per request, no awaited read / drain / future.
Same FakeClock discipline: real localhost TCP, model time moved by
hand, zero sleeps.
"""

import ast
import asyncio
import json
import socket
import tracemalloc
from pathlib import Path

import numpy as np

from repro.policies.fixed import SequentialPolicy
from repro.runtime import serve
from repro.runtime.clock import FakeClock
from repro.runtime.serve import run_live
from repro.sim.metrics import MetricsCollector, QueryRecord

from test_runtime_serve import _IO_S, _Client, _boot, _node, _shutdown, _yield_until

SERVE_PY = Path(serve.__file__)


def _search(request_id, query_index=0, **fields):
    return {"id": request_id, "op": "search", "query_index": query_index, **fields}


def _log_to(logged):
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: logged.append(context)
    )


async def _only_connection(service):
    """The server side of the one open connection."""
    assert await _yield_until(lambda: len(service._connections) == 1)
    return next(iter(service._connections))


class TestSlowReader:
    def test_flood_pauses_its_own_connection_only(self):
        """5,000 pipelined searches from a client that reads nothing:
        the server stops reading *that* connection once its write buffer
        passes the high-water mark, keeps serving others, and owes the
        flooder every reply exactly once."""
        n_requests = 5_000

        async def scenario():
            clock = FakeClock()
            # One core, queue cap 1: two searches are admitted, the rest
            # are shed at admission — a reply per request with no clock.
            node = _node(clock, policy=SequentialPolicy(), n_cores=1, max_queue_length=1)
            service, serve_task, port = await _boot(node)
            # Small kernel buffers on both ends, so back-pressure reaches
            # the transport after kilobytes, not megabytes.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.wait_for(
                asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port)),
                timeout=_IO_S,
            )
            flooder = _Client(*await asyncio.open_connection(sock=sock))
            connection = await _only_connection(service)
            transport = connection._transport
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, option, 4096
                )
            flood = b"".join(
                (json.dumps(_search(i)) + "\n").encode() for i in range(n_requests)
            )
            writing = asyncio.get_running_loop().create_task(flooder.send(flood))

            assert await _yield_until(lambda: not transport.is_reading())
            # Paused with most of the flood unread, holding at most what
            # was buffered when the mark was crossed plus one flush (the
            # replies to one socket read, far under the flood's 0.75 MB).
            _, high_water = transport.get_write_buffer_limits()
            assert node.metrics.n_arrivals < n_requests // 2
            assert transport.get_write_buffer_size() <= high_water + 128 * 1024
            other = await _Client.connect(port)
            assert (await other.ask({"id": "other", "op": "ping"}))["ok"]
            assert not transport.is_reading()

            replies = [await flooder.recv() for _ in range(n_requests - 2)]
            assert {reply["status"] for reply in replies} == {"shed"}
            await asyncio.wait_for(writing, timeout=_IO_S)
            clock.drain()
            replies += [await flooder.recv(), await flooder.recv()]
            assert sorted(reply["id"] for reply in replies) == list(range(n_requests))
            assert transport.is_reading()
            await _shutdown(service, serve_task, flooder, other)

        run_live(scenario())


class TestDisconnects:
    def test_client_vanishes_mid_query(self):
        async def scenario():
            logged = []
            _log_to(logged)
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            for i in range(3):
                await client.send(_search(i, i))
            assert await _yield_until(lambda: node.metrics.n_arrivals == 3)
            connection = await _only_connection(service)
            await client.close()
            # To the server a close reads as EOF: it still owes three replies.
            assert await _yield_until(lambda: connection._closed)
            clock.drain()  # three completions, written to nobody
            assert await _yield_until(lambda: not service._connections)
            assert node.n_answered == 3 and connection._in_flight == 0
            await _shutdown(service, serve_task)
            return logged

        assert run_live(scenario()) == []

    def test_half_close_still_gets_its_replies(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            for i in range(3):
                await client.send(_search(i, i))
            client.writer.write_eof()
            assert await _yield_until(lambda: node.metrics.n_arrivals == 3)
            connection = await _only_connection(service)
            assert await _yield_until(lambda: connection._closed)
            assert not connection._transport.is_closing()  # replies still owed
            clock.drain()
            replies = [await client.recv() for _ in range(3)]
            assert sorted(reply["id"] for reply in replies) == [0, 1, 2]
            assert all(reply["status"] == "completed" for reply in replies)
            assert await asyncio.wait_for(client.reader.read(), timeout=_IO_S) == b""
            assert await _yield_until(lambda: not service._connections)
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_unterminated_last_line_is_a_request(self):
        async def scenario():
            service, serve_task, port = await _boot(_node(FakeClock()))
            client = await _Client.connect(port)
            await client.send(b'{"id": 1, "op": "ping"}')  # no newline
            client.writer.write_eof()
            assert (await client.recv())["id"] == 1
            assert await asyncio.wait_for(client.reader.read(), timeout=_IO_S) == b""
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_quiet_connection_is_hung_up(self, monkeypatch):
        monkeypatch.setattr(serve, "_IDLE_TIMEOUT_S", 0.02)

        async def scenario():
            service, serve_task, port = await _boot(_node(FakeClock()))
            client = await _Client.connect(port)
            assert (await client.ask({"id": 1, "op": "ping"}))["ok"]
            # No sleep: the read returns when the server's timer hangs up.
            assert await asyncio.wait_for(client.reader.read(), timeout=_IO_S) == b""
            assert await _yield_until(lambda: not service._connections)
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    def test_lines_after_shutdown_are_ignored(self):
        async def scenario():
            service, serve_task, port = await _boot(_node(FakeClock()))
            client = await _Client.connect(port)
            await client.send(b'{"id": 1, "op": "shutdown"}\n{"id": 2, "op": "ping"}\n')
            assert (await client.recv())["op"] == "shutdown"
            assert await asyncio.wait_for(client.reader.read(), timeout=_IO_S) == b""
            await client.close()
            await asyncio.wait_for(serve_task, timeout=_IO_S)

        run_live(scenario())


class TestExactlyOnce:
    """A search whose budget timer and completion fall due in one loop
    pass is answered once, whichever the loop runs first."""

    @staticmethod
    async def _race(completion_first):
        loop = asyncio.get_running_loop()
        clock = FakeClock()
        node = _node(clock)
        service, serve_task, port = await _boot(node)
        client = await _Client.connect(port)
        connection = await _only_connection(service)
        # Hand the server its input directly, so the budget timer (due
        # at once) is armed inside this very loop pass ...
        line = json.dumps(_search(1, budget_s=1e-9)) + "\n"
        connection.data_received(line.encode())
        assert connection._in_flight == 1
        # ... and the completion is queued for the next one, ahead of
        # the due timer (call_soon) or behind it (a later call_later).
        if completion_first:
            loop.call_soon(clock.drain)
        else:
            loop.call_later(0, clock.drain)
        first = await client.recv()
        assert await _yield_until(lambda: node.n_answered == 1)
        # Nothing else was written: the next line is the ping's.
        second = await client.ask({"id": 2, "op": "ping"})
        await _shutdown(service, serve_task, client)
        assert connection._in_flight == 0
        return first, second

    def test_completion_then_timer(self):
        first, second = run_live(self._race(completion_first=True))
        assert first["id"] == 1 and first["status"] == "completed"
        assert second["op"] == "ping"

    def test_timer_then_completion(self):
        first, second = run_live(self._race(completion_first=False))
        assert first == {"id": 1, "ok": False, "error": "timeout"}
        assert second["op"] == "ping"


class TestTypedErrors:
    def test_json_that_is_valid_but_not_a_request(self):
        """``true`` is an ``int`` to ``isinstance`` and ``NaN`` is JSON to
        ``json.loads``; neither may reach the oracle or the timer heap."""
        cases = [
            (b'{"id": 1, "op": "search", "query_index": true}', "bad-query-index:True"),
            (b'{"id": 2, "op": "search", "query_index": 1.0}', "bad-query-index:1.0"),
            (b'{"id": 3, "op": "search", "query_index": 0, "budget_s": NaN}', "bad-budget"),
            (b'{"id": 4, "op": "search", "query_index": 0, "budget_s": Infinity}',
             "bad-budget"),
            (b'{"id": 5, "op": "search", "query_index": 0, "budget_s": true}', "bad-budget"),
            (b'{"id": 6, "op": "search", "query_index": 0, "budget_s": 1e999}', "bad-budget"),
            (b'{"id": 7, "op": "search", "query_index": 0, "budget_s": 1' + b"0" * 400 + b"}",
             "bad-budget"),
            (b'{"id": 8, "op": "search", "query_index": 0, "budget_s": "5"}', "bad-budget"),
            (b'{"id": 9, "op": "search", "query_index": 0, "query_class": ["x"]}',
             "bad-query-class"),
            (b'{"id": 10, "op": "stats", "rate": NaN}', "bad-rate"),
            (b'{"id": 11, "op": "stats", "rate": "fast"}', "bad-rate"),
            (b'{"id": 12, "op": "stats", "rate": true}', "bad-rate"),
        ]

        async def scenario():
            logged = []
            _log_to(logged)
            node = _node(FakeClock())
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            for line, error in cases:
                reply = await client.ask(line + b"\n")
                request_id = json.loads(line)["id"]
                assert reply == {"id": request_id, "ok": False, "error": error}, line
            assert node.metrics.n_arrivals == 0
            assert (await client.ask({"id": 13, "op": "ping"}))["ok"]
            await _shutdown(service, serve_task, client)
            return logged

        assert run_live(scenario()) == []


class TestNoTaskPerRequest:
    """Beside ``TestOneLoop`` / ``TestOneHeapOneDrain``: the request path
    is callbacks. It may not grow a task, a future or an awaited read."""

    def test_in_flight_searches_are_not_tasks(self):
        async def scenario():
            clock = FakeClock()
            node = _node(clock)
            service, serve_task, port = await _boot(node)
            client = await _Client.connect(port)
            assert (await client.ask({"id": "p", "op": "ping"}))["ok"]
            idle = len(asyncio.all_tasks())
            for i in range(64):
                await client.send(_search(i, i % 6))
            assert await _yield_until(lambda: node.metrics.n_arrivals == 64)
            assert len(asyncio.all_tasks()) == idle
            clock.drain()
            replies = [await client.recv() for _ in range(64)]
            assert sorted(reply["id"] for reply in replies) == list(range(64))
            assert len(asyncio.all_tasks()) == idle
            await _shutdown(service, serve_task, client)

        run_live(scenario())

    @staticmethod
    def _functions_calling(name):
        tree = ast.parse(SERVE_PY.read_text())
        return {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
        }

    def test_serve_py_awaits_nothing_per_request(self):
        # The bounded awaits that remain are the listener's lifecycle.
        assert self._functions_calling("wait_for") == {"wait_ready", "serve"}
        for name in ("create_task", "ensure_future", "create_future", "gather", "Lock",
                     "start_server", "readline", "readuntil", "drain"):
            assert self._functions_calling(name) == set(), name
        connection = next(
            node for node in ast.walk(ast.parse(SERVE_PY.read_text()))
            if isinstance(node, ast.ClassDef) and node.name == "_Connection"
        )
        assert not [
            node.name for node in ast.walk(connection)
            if isinstance(node, ast.AsyncFunctionDef)
        ]


class TestAsyncDefsAreBoundedAndNonBlocking:
    """Every ``async def`` under ``src/repro``, by syntax alone: nothing
    blocks the loop, no network await is unbounded, no task handle is
    dropped, no handler swallows a cancellation."""

    def test_every_async_def_under_src(self):
        def terminal(call):
            return ast.unparse(call.func).rpartition(".")[2]

        root = SERVE_PY.parents[1]
        problems = set()
        for path in sorted(root.rglob("*.py")):
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, ast.AsyncFunctionDef):
                    continue
                for node in ast.walk(function):
                    problem = None
                    if isinstance(node, ast.Call):
                        name = ast.unparse(node.func)
                        if name in ("time.sleep", "open") or name.startswith(
                            ("subprocess.", "socket.", "requests.")
                        ):
                            problem = f"{name}() blocks the loop"
                    if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                        name = terminal(node.value)
                        network = name.startswith("read") or name in (
                            "drain", "wait_closed", "open_connection",
                            "create_server", "wait", "gather",
                        )
                        bounds = {keyword.arg for keyword in node.value.keywords}
                        if network and not bounds & {"timeout", "timeout_s"}:
                            problem = f"await {name}() outside asyncio.wait_for"
                    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                        if terminal(node.value) in ("create_task", "ensure_future"):
                            problem = f"{terminal(node.value)}() handle dropped"
                    if isinstance(node, ast.ExceptHandler):
                        caught = ast.unparse(node.type) if node.type else ""
                        if (
                            not caught
                            or "BaseException" in caught
                            or "CancelledError" in caught
                        ) and not any(
                            isinstance(inner, ast.Raise) for inner in ast.walk(node)
                        ):
                            problem = f"except {caught}: swallows cancellation"
                    if problem:
                        where = path.relative_to(root).as_posix()
                        problems.add(f"{where}:{node.lineno}: {problem}")
        assert not problems, "\n".join(sorted(problems))


class TestColumnStore:
    """``MetricsCollector`` keeps columns, not a row object per query."""

    @staticmethod
    def _collector(n):
        metrics = MetricsCollector(warmup=0.0, horizon=1e9, n_cores=4)
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(0.01, size=n))
        waits = rng.exponential(0.003, size=n)
        services = rng.exponential(0.02, size=n)
        for i in range(n):
            start = float(arrivals[i] + waits[i])
            metrics.on_completion(QueryRecord(
                i % 97, float(arrivals[i]), start, float(start + services[i]), 1 + i % 4
            ))
        return metrics

    def test_views_equal_the_per_record_arithmetic(self):
        metrics = self._collector(500)
        records = metrics.records
        assert metrics.n_observed == len(records) == 500
        assert metrics.latencies().tolist() == [r.completion - r.arrival for r in records]
        assert metrics.queue_delays().tolist() == [r.start - r.arrival for r in records]
        assert metrics.degrees().tolist() == [r.degree for r in records]
        assert [r.query_index for r in records] == [i % 97 for i in range(500)]
        deadline = float(np.median(metrics.latencies()))
        in_slo = sum(1 for r in records if r.latency <= deadline)
        assert metrics.goodput(deadline) == in_slo / metrics.window_s

    def test_window_read_is_the_tail(self):
        metrics = MetricsCollector(warmup=0.0, horizon=1e9, n_cores=4)
        full = self._collector(500)
        records = full.records
        read, other = metrics.window_reader(), metrics.window_reader()
        windows = []
        for lo, hi in ((0, 0), (0, 1), (1, 250), (250, 499), (499, 500), (500, 500)):
            for record in records[lo:hi]:
                metrics.on_arrival()
                metrics.on_completion(record)
            for _ in range(hi - lo):
                metrics.on_shed(0.0, "admission")
            windows.append(read())
        # Successive windows partition the run.
        assert [w.n_arrivals for w in windows] == [0, 1, 249, 249, 1, 0]
        assert [w.n_shed for w in windows] == [0, 1, 249, 249, 1, 0]
        assert sum(w.n_arrivals for w in windows) == metrics.n_arrivals == 500
        assert sum(w.n_shed for w in windows) == metrics.n_shed == 500
        assert np.array_equal(
            np.concatenate([w.latencies for w in windows]), metrics.latencies()
        )
        assert np.array_equal(
            np.concatenate([w.degrees for w in windows]), metrics.degrees()
        )
        assert np.array_equal(metrics.latencies(), full.latencies())
        # A second reader keeps its own cursor: its first read is the run.
        whole = other()
        assert whole.n_arrivals == 500 and whole.n_shed == 500
        assert np.array_equal(whole.latencies, metrics.latencies())
        assert np.array_equal(whole.degrees, metrics.degrees())
        assert other().n_arrivals == 0 and other().latencies.size == 0
        # A window must not pin the store: the collector keeps growing.
        window = windows[3]
        metrics.on_completion(QueryRecord(0, 1.0, 1.0, 2.0, 1))
        assert window.latencies.size == 249 and metrics.n_observed == 501
        assert read().latencies.tolist() == [1.0]

    def test_retains_under_sixty_bytes_a_record(self):
        n = 10_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            metrics = self._collector(n)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert metrics.n_observed == n
        assert (after - before) / n < 60.0
