"""Load-generator clients for the live serving front door.

Speaks the newline-delimited-JSON protocol of
:class:`~repro.runtime.serve.LiveServer` and replays the *same* seeded
workloads the simulator consumes:

* :func:`replay_open_loop` — open-loop replay of a
  :class:`~repro.sim.script.ScriptedArrival` script (built by
  :func:`~repro.sim.script.build_arrival_script` from the identical
  RNG streams ``run_load_point`` uses). Requests are paced to the
  scripted arrival times over one pipelined connection; replies are matched by id, so out-of-order completion is
  fine. This is the paper's model — arrivals independent of service.
* :func:`run_closed_loop` — a fixed client population, each cycling
  submit → wait → think, so offered load throttles itself on latency.

Both return the raw reply dicts; the authoritative metrics live
server-side in the node's collector (fetch them with a ``stats``
request, or read the node directly in-process) so simulated and live
load points are summarized by literally the same code path.

Deadline discipline: connection setup, every reply read, every drain,
and the final teardown are bounded with ``asyncio.wait_for``; the
reply-reader task handle is kept and awaited under a bound
(``tests/test_runtime_frontdoor.py`` pins both, for every ``async def``
under ``src/repro``).
"""

from __future__ import annotations

import asyncio
import json
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.script import ScriptedArrival
from repro.util.validation import require_int_in_range, require_positive

__all__ = ["CONNECT_TIMEOUT_S", "ReplayOptions", "replay_open_loop", "run_closed_loop"]

#: Wall-seconds bound on connection setup.
CONNECT_TIMEOUT_S = 10.0

#: Flush the pipelined writer every this many requests (flow control
#: without a drain round-trip per send).
_DRAIN_EVERY = 64


@dataclass(frozen=True)
class ReplayOptions:
    """Client-side knobs for a replay run."""

    #: Per-request completion budget sent to the server (seconds);
    #: None uses the server default.
    budget_s: Optional[float] = None
    #: Wall-seconds bound on each reply read and each flush.
    reply_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.budget_s is not None:
            require_positive(self.budget_s, "budget_s")
        require_positive(self.reply_timeout_s, "reply_timeout_s")


def _search_request(
    request_id: int, arrival: ScriptedArrival, options: ReplayOptions
) -> bytes:
    request: Dict[str, Any] = {
        "id": request_id,
        "op": "search",
        "query_index": arrival.query_index,
    }
    if arrival.query_class is not None:
        request["query_class"] = arrival.query_class
    if options.budget_s is not None:
        request["budget_s"] = options.budget_s
    return (json.dumps(request) + "\n").encode("utf-8")


async def _read_replies(
    reader: asyncio.StreamReader, n_expected: int, timeout_s: float
) -> Dict[int, Dict[str, Any]]:
    replies: Dict[int, Dict[str, Any]] = {}
    for _ in range(n_expected):
        line = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
        if not line:
            break  # server hung up; return what we have
        message = json.loads(line.decode("utf-8"))
        replies[message.get("id")] = message
    return replies


async def replay_open_loop(
    host: str,
    port: int,
    script: Sequence[ScriptedArrival],
    options: ReplayOptions = ReplayOptions(),
) -> List[Optional[Dict[str, Any]]]:
    """Replay ``script`` open-loop; returns one reply (or None) per
    arrival, in script order. Pacing is best-effort wall-clock: each
    request is sent ``arrival.time_s`` seconds after the replay starts,
    falling behind only if the event loop does."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=CONNECT_TIMEOUT_S
    )
    loop = asyncio.get_running_loop()
    reader_task = loop.create_task(
        _read_replies(reader, len(script), options.reply_timeout_s)
    )
    try:
        origin = loop.time()
        for request_id, arrival in enumerate(script):
            delay = origin + arrival.time_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(_search_request(request_id, arrival, options))
            if (request_id + 1) % _DRAIN_EVERY == 0:
                await asyncio.wait_for(
                    writer.drain(), timeout=options.reply_timeout_s
                )
        await asyncio.wait_for(writer.drain(), timeout=options.reply_timeout_s)
        replies = await asyncio.wait_for(
            reader_task, timeout=options.reply_timeout_s * len(script) + 1.0
        )
    finally:
        reader_task.cancel()
        writer.close()
        try:
            await asyncio.wait_for(
                writer.wait_closed(), timeout=CONNECT_TIMEOUT_S
            )
        except (asyncio.TimeoutError, OSError):
            pass
        # Cancelled here, so seen through here: a failed replay must not
        # leave the reader pending for the loop's teardown to complain of.
        with suppress(asyncio.CancelledError):
            await reader_task
    return [replies.get(i) for i in range(len(script))]


async def _closed_loop_client(
    host: str,
    port: int,
    arrivals: Sequence[ScriptedArrival],
    think_time_s: float,
    options: ReplayOptions,
) -> List[Optional[Dict[str, Any]]]:
    """One closed-loop client: submit, await the reply, think, repeat."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=CONNECT_TIMEOUT_S
    )
    replies: List[Optional[Dict[str, Any]]] = []
    try:
        for request_id, arrival in enumerate(arrivals):
            writer.write(_search_request(request_id, arrival, options))
            await asyncio.wait_for(
                writer.drain(), timeout=options.reply_timeout_s
            )
            line = await asyncio.wait_for(
                reader.readline(), timeout=options.reply_timeout_s
            )
            if not line:
                replies.append(None)
                break
            replies.append(json.loads(line.decode("utf-8")))
            if think_time_s > 0:
                await asyncio.sleep(think_time_s)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(
                writer.wait_closed(), timeout=CONNECT_TIMEOUT_S
            )
        except (asyncio.TimeoutError, OSError):
            pass
    return replies


async def run_closed_loop(
    host: str,
    port: int,
    script: Sequence[ScriptedArrival],
    n_clients: int,
    think_time_s: float = 0.0,
    options: ReplayOptions = ReplayOptions(),
) -> List[List[Optional[Dict[str, Any]]]]:
    """Closed-loop population: ``script`` is dealt round-robin to
    ``n_clients`` concurrent clients (scripted times are ignored — in a
    closed loop the *service* paces the clients). Returns each client's
    replies."""
    require_int_in_range(n_clients, "n_clients", low=1)
    if think_time_s < 0:
        raise ValueError(f"think_time_s must be >= 0, got {think_time_s}")
    per_client: List[List[ScriptedArrival]] = [[] for _ in range(n_clients)]
    for i, arrival in enumerate(script):
        per_client[i % n_clients].append(arrival)
    loop = asyncio.get_running_loop()
    tasks = [
        loop.create_task(
            _closed_loop_client(host, port, chunk, think_time_s, options)
        )
        for chunk in per_client
    ]
    bound = options.reply_timeout_s * max(1, len(script)) + 1.0
    results = await asyncio.wait_for(
        asyncio.gather(*tasks, return_exceptions=False), timeout=bound
    )
    return list(results)
