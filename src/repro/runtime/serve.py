"""Asyncio front door: the live serving node behind a TCP socket.

``python -m repro serve`` hosts a :class:`~repro.runtime.node.
ServingNode` — and through it the real :class:`~repro.engine.executor.
Engine` — behind a newline-delimited-JSON TCP protocol built on
nothing but asyncio (no new dependencies). One request per line::

    {"id": 1, "op": "search", "query_index": 42}
    {"id": 2, "op": "stats", "rate": 800.0}
    {"id": 3, "op": "ping"}

and one JSON reply per request (``id`` echoes the request; replies may
arrive out of order because each search is handled by its own task).
Search replies carry the query's outcome — completed with latency,
degree, and ranked results in engine mode, or shed with the kernel's
reason — and ``stats`` returns the node's counters plus, when a rate
is supplied, the full shared :class:`~repro.sim.experiment.
LoadPointSummary` schema. Unparseable lines are answered ``bad-json``;
a line over the stream limit (64 KiB) ``line-too-long`` and a hang-up.

Two scheduler hostings, same node code:

* :class:`AsyncioScheduler` — wall time from the running event loop,
  optionally *dilated*: with ``dilation=20`` one model second takes 20
  wall seconds, which shrinks event-loop jitter twentyfold in model
  units. That is what makes live smoke runs comparable to simulator
  predictions on a noisy CI machine while keeping every model-seconds
  quantity (deadlines, latencies, metrics windows) untouched.
* :class:`~repro.runtime.clock.FakeClock` (the simulator's heap) —
  tests instantiate :class:`LiveServer` on one and advance it by hand:
  entire query lifecycles execute deterministically, zero real sleeps.

Deadline discipline (reprolint R019): every awaited read, drain, and
connection-shutdown call is bounded by ``asyncio.wait_for``; each
search waits on its completion future under a budget derived from the
request (model seconds, converted to wall seconds through the
dilation); connection tasks are tracked per connection and cancelled
on hangup.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Set

from repro.errors import SimulationError
from repro.runtime.node import QueryOutcome, ServingNode
from repro.util.serde import to_jsonable
from repro.util.validation import require_positive

__all__ = ["AsyncioScheduler", "LiveServer"]

#: Wall-seconds bound on binding the listening socket.
_BIND_TIMEOUT_S = 10.0
#: Wall-seconds bound on flushing / closing a connection.
_CLOSE_TIMEOUT_S = 5.0
#: Wall-seconds quiet period after which a connection is hung up.
_IDLE_TIMEOUT_S = 300.0
#: Ranked results per search reply (bounds the wire for any search hook).
_RESULTS_LIMIT = 10


class AsyncioScheduler:
    """The kernel's scheduler interface on a running asyncio loop.

    Satisfies :class:`repro.core.clock.SchedulerProtocol` structurally.
    ``now`` is the loop's monotonic time zeroed at construction and
    divided by ``dilation``; ``schedule`` multiplies model delays back
    up to wall delays. ``dilation`` therefore changes how long a model
    second *takes*, never what the kernel *sees* — decisions, metrics,
    and deadlines all stay in model seconds.
    """

    __slots__ = ("_loop", "_origin", "_dilation")

    def __init__(
        self,
        dilation: float = 1.0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        require_positive(dilation, "dilation")
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._dilation = float(dilation)
        self._origin = self._loop.time()

    @property
    def dilation(self) -> float:
        return self._dilation

    @property
    def now(self) -> float:
        """Model seconds since construction."""
        return (self._loop.time() - self._origin) / self._dilation

    def schedule(self, delay_s: float, callback: Any) -> None:
        """Run ``callback`` after ``delay_s`` *model* seconds."""
        if delay_s < 0:
            raise SimulationError(f"cannot schedule {delay_s}s in the past")
        self._loop.call_later(delay_s * self._dilation, callback)

    def __repr__(self) -> str:
        return f"AsyncioScheduler(now={self.now:.6f}, dilation={self._dilation})"


class LiveServer:
    """Newline-delimited-JSON TCP front door over one serving node.

    Instantiate *inside* a running event loop (as :mod:`repro.cli`'s
    ``serve`` command and the smoke harness do): the readiness and
    shutdown events must bind to the loop that will serve, which on
    Python 3.9 means the loop must already be running at construction.
    """

    def __init__(
        self,
        node: ServingNode,
        dilation: float = 1.0,
        request_budget_s: float = 60.0,
    ) -> None:
        """``request_budget_s`` is the default per-search completion
        budget in *model* seconds (a request may lower it with its own
        ``budget_s`` field)."""
        require_positive(request_budget_s, "request_budget_s")
        self.node = node
        self.dilation = float(dilation)
        self.request_budget_s = float(request_budget_s)
        self.port: Optional[int] = None
        self._ready = asyncio.Event()
        self._shutdown = asyncio.Event()
        # Open connections (handler task -> writer), hung up at shutdown.
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    # ----------------------------------------------------------------
    # Lifecycle
    # ----------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Stop accepting and return from :meth:`serve` (idempotent)."""
        self._shutdown.set()

    async def wait_ready(self, timeout_s: float = _BIND_TIMEOUT_S) -> int:
        """Block until the listening socket is bound; returns the port."""
        await asyncio.wait_for(self._ready.wait(), timeout=timeout_s)
        assert self.port is not None
        return self.port

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        duration_s: Optional[float] = None,
    ) -> None:
        """Accept connections until shutdown is requested (by the
        ``shutdown`` op or :meth:`request_shutdown`) or ``duration_s``
        wall seconds elapse."""
        server = await asyncio.wait_for(
            asyncio.start_server(self._handle_connection, host, port),
            timeout=_BIND_TIMEOUT_S,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            if duration_s is None:
                await self._shutdown.wait()
            else:
                try:
                    await asyncio.wait_for(
                        self._shutdown.wait(), timeout=duration_s
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            server.close()
            # Hang up open connections too: their handlers read EOF and
            # return, instead of being cancelled by the loop's teardown.
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(
                    list(self._connections), timeout=_CLOSE_TIMEOUT_S
                )
            try:
                await asyncio.wait_for(
                    server.wait_closed(), timeout=_CLOSE_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                pass

    # ----------------------------------------------------------------
    # Connection handling
    # ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: Set["asyncio.Task[None]"] = set()
        write_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer
        handler.add_done_callback(self._connections.pop)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=_IDLE_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break  # idle connection: hang up
                except ValueError:
                    # Over the stream limit: framing is lost. Say so, then
                    # swallow what is still arriving before hanging up —
                    # closing on unread input resets the reply away.
                    try:
                        await self._reply(
                            {"id": None, "ok": False, "error": "line-too-long"},
                            writer, write_lock,
                        )
                        while await asyncio.wait_for(
                            reader.read(1 << 16), timeout=_CLOSE_TIMEOUT_S
                        ):
                            pass
                    except (asyncio.TimeoutError, OSError):
                        pass
                    break
                if not line:
                    break  # client closed
                # One task per request so slow searches never head-of-
                # line-block the next request on this connection.
                task = loop.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                budget = self.request_budget_s * self.dilation + _CLOSE_TIMEOUT_S
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*tasks, return_exceptions=True),
                        timeout=budget,
                    )
                except asyncio.TimeoutError:
                    for task in tasks:
                        task.cancel()
            writer.close()
            try:
                await asyncio.wait_for(
                    writer.wait_closed(), timeout=_CLOSE_TIMEOUT_S
                )
            except (asyncio.TimeoutError, OSError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            message = None
        if not isinstance(message, dict):
            reply: Dict[str, Any] = {"id": None, "ok": False, "error": "bad-json"}
        else:
            reply = await self._dispatch(message)
        await self._reply(reply, writer, write_lock)

    async def _reply(
        self,
        reply: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        data = (json.dumps(reply, sort_keys=True) + "\n").encode("utf-8")
        async with write_lock:
            writer.write(data)
            await asyncio.wait_for(writer.drain(), timeout=_CLOSE_TIMEOUT_S)

    # ----------------------------------------------------------------
    # Operations
    # ----------------------------------------------------------------

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id")
        if op == "ping":
            return {
                "id": request_id,
                "ok": True,
                "op": "ping",
                "now_s": self.node.scheduler.now,
            }
        if op == "stats":
            return self._stats_reply(request_id, message)
        if op == "shutdown":
            self.request_shutdown()
            return {"id": request_id, "ok": True, "op": "shutdown"}
        if op == "search":
            return await self._search(request_id, message)
        return {"id": request_id, "ok": False, "error": f"unknown-op:{op!r}"}

    def _stats_reply(
        self, request_id: Any, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        node = self.node
        reply: Dict[str, Any] = {
            "id": request_id,
            "ok": True,
            "op": "stats",
            "now_s": node.scheduler.now,
            "n_queries": node.oracle.n_queries,
            "n_cores": node.config.n_cores,
            "policy": node.policy.name,
            "n_observed": node.metrics.n_observed,
            "n_answered": node.n_answered,
            "n_shed": node.server.n_shed,
            "queue_length": node.server.queue_length,
            "n_running": node.server.n_running,
        }
        rate = message.get("rate")
        if rate is not None:
            reply["summary"] = to_jsonable(node.summary(float(rate)))
        return reply

    async def _search(
        self, request_id: Any, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        query_index = message.get("query_index")
        if not isinstance(query_index, int) or not (
            0 <= query_index < self.node.oracle.n_queries
        ):
            return {
                "id": request_id,
                "ok": False,
                "error": f"bad-query-index:{query_index!r}",
            }
        budget_s = message.get("budget_s", self.request_budget_s)
        if not isinstance(budget_s, (int, float)) or budget_s <= 0:
            return {"id": request_id, "ok": False, "error": "bad-budget"}
        query_class = message.get("query_class")

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryOutcome]" = loop.create_future()

        def resolve(outcome: QueryOutcome) -> None:
            # May fire synchronously inside submit() (admission shed) or
            # later from a scheduler callback; either way exactly once.
            if not future.done():
                future.set_result(outcome)

        self.node.submit(query_index, on_done=resolve, query_class=query_class)
        try:
            outcome = await asyncio.wait_for(
                future, timeout=float(budget_s) * self.dilation
            )
        except asyncio.TimeoutError:
            return {"id": request_id, "ok": False, "error": "timeout"}
        return self._outcome_reply(request_id, outcome)

    def _outcome_reply(
        self, request_id: Any, outcome: QueryOutcome
    ) -> Dict[str, Any]:
        reply: Dict[str, Any] = {
            "id": request_id,
            "ok": True,
            "op": "search",
            "status": outcome.status,
            "query_index": outcome.query_index,
            "arrival_s": outcome.arrival_s,
            "finished_s": outcome.finished_s,
            "latency_s": outcome.latency_s,
        }
        if outcome.status == "completed":
            reply["degree"] = outcome.degree
            if outcome.results is not None:
                reply["results"] = [
                    [doc_id, score]
                    for doc_id, score in outcome.results[:_RESULTS_LIMIT]
                ]
        else:
            reply["shed_reason"] = outcome.shed_reason
        return reply
