"""Asyncio front door: the live serving node behind a TCP socket.

``python -m repro serve`` hosts a :class:`~repro.runtime.node.
ServingNode` — and through it the real :class:`~repro.engine.executor.
Engine` — behind newline-delimited JSON over TCP, on asyncio alone::

    {"id": 1, "op": "search", "query_index": 42}
    {"id": 2, "op": "stats", "rate": 800.0}
    {"id": 3, "op": "ping"}

One request per line, one JSON reply per request (``id`` echoes the
request; replies leave in completion order, so a fast search overtakes
a slow one). Search replies carry the query's outcome — completed with
latency, degree, and ranked results in engine mode, or shed with the
kernel's reason — and ``stats`` returns the node's counters plus, given
a rate, the shared :class:`~repro.sim.experiment.LoadPointSummary`
schema. An unparseable line is answered ``bad-json``, a bad field with
a typed error, a line over 64 KiB ``line-too-long`` and a hang-up.

Two scheduler hostings, same node code:

* :class:`AsyncioScheduler` — wall time from the running event loop,
  optionally *dilated*: with ``dilation=20`` one model second takes 20
  wall seconds, which shrinks the loop's timer lateness (below)
  twentyfold in model units — what makes a live smoke run on a noisy
  CI machine comparable to the simulator's prediction.
* :class:`~repro.runtime.clock.FakeClock` (the simulator's heap) —
  tests instantiate :class:`LiveServer` on one and advance it by hand:
  entire query lifecycles execute deterministically, zero real sleeps.

The request path is synchronous callbacks on one :class:`asyncio.
Protocol` per connection: ``data_received`` dispatches every complete
line of a wake-up; a search hands the node a completion callback and
arms one cancellable budget timer (model seconds, dilated to wall
seconds) — no task, future or ``await`` per request; the only awaits
are :meth:`LiveServer.serve`'s bounded ones
(``tests/test_runtime_frontdoor.py`` pins both).
Replies collect per connection and leave in one ``transport.write`` per
loop pass; a client that does not read them has *its* reads paused
(``pause_writing``), nobody waits on a drain; one lazily re-armed
quiet-period timer per connection hangs up the idle.

Every live loop — ``repro serve``, ``repro loadgen``, the smoke
harness, and the tests of this tier — is built and run by
:func:`run_live`, whose loop's selector times its waits to the
microsecond. The stock :class:`selectors.EpollSelector` rounds each
wait up to a whole millisecond (``epoll_wait`` counts milliseconds), so
on it every timer — a phase end, a budget, an arrival — fires 0-1 ms
late: over 2,000 ``call_later`` timers of 0.2-3 ms on a 2-vCPU KVM
guest, lateness had a mean of 0.61-0.64 ms and a p99 of 1.16-1.20 ms;
on the live loop, 0.14-0.17 ms and 0.29-0.62 ms, the guest's own
wake-up latency.
"""

from __future__ import annotations

import asyncio
import json
import select
import selectors
import sys
from contextlib import suppress
from typing import Any, Awaitable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.errors import SimulationError
from repro.runtime.node import QueryOutcome, ServingNode
from repro.util.serde import to_jsonable
from repro.util.validation import require_positive

__all__ = ["AsyncioScheduler", "LiveServer", "new_live_loop", "run_live"]

#: Wall-seconds bound on binding the listening socket.
_BIND_TIMEOUT_S = 10.0
#: Wall-seconds bound on flushing / closing a connection.
_CLOSE_TIMEOUT_S = 5.0
#: Wall-seconds quiet period after which a connection is hung up.
_IDLE_TIMEOUT_S = 300.0
#: Longest request line accepted, in bytes (the newline excluded).
_LINE_LIMIT = 1 << 16
#: Ranked results per search reply (bounds the wire for any search hook).
_RESULTS_LIMIT = 10

_T = TypeVar("_T")


if sys.platform.startswith("linux"):

    class _PreciseEpollSelector(selectors.EpollSelector):
        """Epoll whose timed waits end when they are due, not up to a
        millisecond later.

        ``epoll_wait`` counts its timeout in whole milliseconds, and
        :class:`selectors.EpollSelector` rounds every wait up to the next
        one, so each timer of a loop on it fires 0-1 ms late. Here a
        timed wait blocks in ``select()`` — a microsecond ``timeval`` —
        on the epoll fd alone (readable once any registered fd is ready,
        so ``FD_SETSIZE`` caps no connection count), then collects the
        ready events with a zero-timeout ``epoll_wait``. Untimed and
        zero-timeout waits go to epoll directly.
        """

        def select(
            self, timeout: Optional[float] = None
        ) -> List[Tuple[selectors.SelectorKey, int]]:
            if timeout is not None and timeout > 0:
                select.select([self.fileno()], [], [], timeout)
                timeout = 0
            return super().select(timeout)

    def new_live_loop() -> asyncio.AbstractEventLoop:
        """A new event loop whose timers fire when they are due."""
        return asyncio.SelectorEventLoop(_PreciseEpollSelector())

else:  # kqueue takes a float timeout already; elsewhere keep the default

    def new_live_loop() -> asyncio.AbstractEventLoop:
        """A new event loop (the platform's default)."""
        return asyncio.new_event_loop()


def run_live(main: Awaitable[_T]) -> _T:
    """Run ``main`` to completion on a new :func:`new_live_loop` loop.

    What :func:`asyncio.run` does, on that loop and on every Python the
    package supports (``asyncio.Runner``'s ``loop_factory`` is 3.11+):
    refuse to nest in a running loop, run ``main``, then cancel the
    tasks it left, finalize async generators and the default executor,
    and close the loop.
    """
    if asyncio._get_running_loop() is not None:
        raise RuntimeError("run_live() cannot be called from a running event loop")
    loop = new_live_loop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_leftover_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def _cancel_leftover_tasks(loop: asyncio.AbstractEventLoop) -> None:
    leftover = asyncio.all_tasks(loop)
    if not leftover:
        return
    for task in leftover:
        task.cancel()
    loop.run_until_complete(asyncio.wait(leftover))
    for task in leftover:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler({
                "message": "unhandled exception during run_live() shutdown",
                "exception": task.exception(),
                "task": task,
            })


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

    def __init__(self, dilation: float = 1.0) -> None:
        require_positive(dilation, "dilation")
        self._loop = asyncio.get_running_loop()
        self._dilation = float(dilation)
        self._origin = self._loop.time()

    @property
    def dilation(self) -> float:
        return self._dilation

    @property
    def now(self) -> float:
        """Model seconds since construction."""
        return (self._loop.time() - self._origin) / self._dilation

    def schedule(self, delay_s: float, callback: Any, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay_s`` *model* seconds."""
        if delay_s < 0:
            raise SimulationError(f"cannot schedule {delay_s}s in the past")
        self._loop.call_later(delay_s * self._dilation, callback, *args)

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
        self, node: ServingNode, dilation: float = 1.0, request_budget_s: float = 60.0
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
        # Open connections, hung up at shutdown; ``_quiet`` is set while
        # there are none (what serve() waits for before it returns).
        self._connections: Set["_Connection"] = set()
        self._quiet = asyncio.Event()
        self._quiet.set()

    def request_shutdown(self) -> None:
        """Stop accepting and return from :meth:`serve` (idempotent)."""
        self._shutdown.set()

    async def wait_ready(self, timeout_s: float = _BIND_TIMEOUT_S) -> int:
        """Block until the listening socket is bound; returns the port."""
        await asyncio.wait_for(self._ready.wait(), timeout=timeout_s)
        assert self.port is not None
        return self.port

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0, duration_s: Optional[float] = None
    ) -> None:
        """Accept connections until shutdown is requested (by the
        ``shutdown`` op or :meth:`request_shutdown`) or ``duration_s``
        wall seconds elapse."""
        loop = asyncio.get_running_loop()
        server = await asyncio.wait_for(
            loop.create_server(lambda: _Connection(self, loop), host, port),
            timeout=_BIND_TIMEOUT_S,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._shutdown.wait(), timeout=duration_s)
        finally:
            server.close()
            # Hang up open connections too, each flushing what it owes,
            # and see them gone (before 3.12 Server.wait_closed does not):
            # nothing is left for the loop's teardown to cancel or log.
            for connection in list(self._connections):
                connection.flush(hang_up=True)
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._quiet.wait(), timeout=_CLOSE_TIMEOUT_S)

    def stats_reply(self, request_id: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        node = self.node
        rate = message.get("rate")
        if rate is not None and not _is_positive_finite(rate):
            return {"id": request_id, "ok": False, "error": "bad-rate"}
        reply: Dict[str, Any] = {
            "id": request_id, "ok": True, "op": "stats",
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
        if rate is not None:
            reply["summary"] = to_jsonable(node.summary(float(rate)))
        return reply


def _outcome_reply(request_id: Any, outcome: QueryOutcome) -> Dict[str, Any]:
    reply: Dict[str, Any] = {
        "id": request_id, "ok": True, "op": "search",
        "status": outcome.status,
        "query_index": outcome.query_index,
        "arrival_s": outcome.arrival_s,
        "finished_s": outcome.finished_s,
        "latency_s": outcome.latency_s,
    }
    if outcome.status == "completed":
        reply["degree"] = outcome.degree
        if outcome.results is not None:
            # (doc_id, score) tuples: JSON arrays on the wire.
            reply["results"] = outcome.results[:_RESULTS_LIMIT]
    else:
        reply["shed_reason"] = outcome.shed_reason
    return reply


def _is_positive_finite(value: Any) -> bool:
    """A JSON number in (0, inf): not a bool (``isinstance`` calls it an
    int), not NaN / Infinity (``json.loads`` accepts both), not an int
    too large for the float it is about to become."""
    return type(value) in (int, float) and 0 < value <= sys.float_info.max


class _Connection(asyncio.Protocol):
    """One client connection: synchronous callbacks only (module docstring)."""

    _transport: asyncio.Transport  # set, like the quiet timer, by connection_made

    def __init__(self, service: LiveServer, loop: asyncio.AbstractEventLoop) -> None:
        self._service = service
        self._loop = loop
        self._pending = b""  # the incomplete last line
        self._out: List[str] = []  # replies owed; non-empty = a flush is armed
        self._in_flight = 0  # searches not yet answered
        # Input is read (lines dispatched), then swallowed (framing lost:
        # discarded until EOF or a quiet spell), then closed (hang up
        # once every in-flight search has answered).
        self._reading = True
        self._closed = False
        self._quiet_limit_s = _IDLE_TIMEOUT_S

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._last_read_s = self._loop.time()
        self._quiet_timer = self._loop.call_later(_IDLE_TIMEOUT_S, self._on_quiet)
        self._service._connections.add(self)
        self._service._quiet.clear()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # The one place a disconnect is seen. Replies still owed to this
        # client are dropped (``_send``); its searches run on.
        self._quiet_timer.cancel()
        self._service._connections.discard(self)
        if not self._service._connections:
            self._service._quiet.set()

    def data_received(self, data: bytes) -> None:
        self._last_read_s = self._loop.time()
        if not self._reading:
            return
        lines = (self._pending + data).split(b"\n")
        self._pending = lines.pop()
        for line in lines:
            if self._service._shutdown.is_set():
                return  # lines after a shutdown are ignored
            if len(line) > _LINE_LIMIT:
                return self._framing_lost()
            self._handle_line(line)
        if len(self._pending) > _LINE_LIMIT:
            self._framing_lost()

    def _framing_lost(self) -> None:
        # A line over the limit. Say so, then swallow what still arrives
        # before hanging up: closing on unread input resets the reply away.
        self._pending = b""
        self._reading = False
        self._send({"id": None, "ok": False, "error": "line-too-long"})
        self._quiet_limit_s = _CLOSE_TIMEOUT_S
        self._on_quiet()

    def eof_received(self) -> bool:
        # A half-close: what was asked is still answered. True keeps the
        # transport open for writing; flush() hangs up after the last reply.
        if self._reading and self._pending:
            self._handle_line(self._pending)
        self._close_input()
        return True

    def pause_writing(self) -> None:
        # The client is not reading its replies: stop reading its requests.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def _on_quiet(self) -> None:
        """The one quiet-period timer, re-armed lazily: a read only stamps
        ``_last_read_s``; the timer sleeps out what is left or closes."""
        self._quiet_timer.cancel()
        left_s = self._last_read_s + self._quiet_limit_s - self._loop.time()
        if left_s > 0:
            self._quiet_timer = self._loop.call_later(left_s, self._on_quiet)
        else:
            self._close_input()

    def _close_input(self) -> None:
        self._reading = False
        self._closed = True
        self.flush()

    def _send(self, reply: Dict[str, Any]) -> None:
        if self._transport.is_closing():
            return  # hung up, or the client is gone
        if not self._out:
            self._loop.call_soon(self.flush)
        self._out.append(json.dumps(reply, sort_keys=True) + "\n")

    def flush(self, hang_up: bool = False) -> None:
        """Write what is owed; hang up if the input is closed and nothing
        is in flight — or regardless (``hang_up``: server shutdown)."""
        if self._out and not self._transport.is_closing():
            self._transport.write("".join(self._out).encode("utf-8"))
        self._out.clear()
        if hang_up or (self._closed and not self._in_flight):
            self._transport.close()

    def _handle_line(self, line: bytes) -> None:
        try:
            message = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is one
            message = None
        if not isinstance(message, dict):
            self._send({"id": None, "ok": False, "error": "bad-json"})
            return
        service = self._service
        op = message.get("op")
        request_id = message.get("id")
        if op == "search":
            self._search(request_id, message)
        elif op == "ping":
            now_s = service.node.scheduler.now
            self._send({"id": request_id, "ok": True, "op": "ping", "now_s": now_s})
        elif op == "stats":
            self._send(service.stats_reply(request_id, message))
        elif op == "shutdown":
            service.request_shutdown()
            self._send({"id": request_id, "ok": True, "op": "shutdown"})
        else:
            self._send({"id": request_id, "ok": False, "error": f"unknown-op:{op!r}"})

    def _search(self, request_id: Any, message: Dict[str, Any]) -> None:
        service = self._service
        query_index = message.get("query_index")
        query_class = message.get("query_class")
        budget_s = message.get("budget_s", service.request_budget_s)
        error = None
        # type(), not isinstance(): a JSON ``true`` is no query index.
        n_queries = service.node.oracle.n_queries
        if type(query_index) is not int or not 0 <= query_index < n_queries:
            error = f"bad-query-index:{query_index!r}"
        elif not _is_positive_finite(budget_s):
            error = "bad-budget"
        elif query_class is not None and not isinstance(query_class, str):
            error = "bad-query-class"
        if error is not None:
            self._send({"id": request_id, "ok": False, "error": error})
            return

        def answer(outcome: Optional[QueryOutcome] = None) -> None:
            # Called by the node with the outcome (synchronously inside
            # submit() on an admission shed) and by the budget timer with
            # none: whichever comes first answers and cancels the timer,
            # whose cancelled flag is the latch that drops the other.
            if timer.cancelled():
                return
            timer.cancel()
            self._in_flight -= 1
            if outcome is None:
                self._send({"id": request_id, "ok": False, "error": "timeout"})
            else:
                self._send(_outcome_reply(request_id, outcome))

        self._in_flight += 1
        timer = self._loop.call_later(float(budget_s) * service.dilation, answer)
        service.node.submit(query_index, on_done=answer, query_class=query_class)
