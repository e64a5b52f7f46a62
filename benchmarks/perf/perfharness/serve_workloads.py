"""serve-paced and serve-saturate: ``python -m repro serve`` as a
subprocess, loaded over TCP by one asyncio generator in this process
(no threads, at most two connections)."""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfharness.inputs import (
    PACED_RATE,
    SYSTEM_SEED,
    poisson_schedule,
    query_index_stream,
)
from perfharness.spans import SpanRecorder
from perfharness.spec import REPO_ROOT, program_env
from perfharness.stats import Prober, RoundSample, percentile
from perfharness.workload import Workload, cpu_seconds, peak_rss_mb

#: Wall-seconds bounds: server start, one reply, process exit.
START_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 15.0
#: serve-paced: a reply later than this misses the SLO.
SLO_MS = 25.0
#: serve-paced: the generator was late (round invalid) above this.
MAX_SEND_LAG_P99_MS = 5.0
#: serve-paced: replies whose results are checked against the engine.
CHECKED_REPLIES = 100

_SERVING = re.compile(rb"^serving .* on [\d.]+:(\d+) ")

Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


def split_cpus() -> Optional[Tuple[int, int]]:
    """(generator CPU, server CPU): the first two this process may run
    on, or None when it has only one.

    Left to itself the kernel's wake-affine placement stacks two
    processes that wake each other over loopback on ONE core for
    minutes at a time (server 68 % + generator 31 % of a core, 4-5k
    req/s), then spreads them again (97 % + 52 %, 7k req/s): ten runs
    of serve-saturate spread 30-40 %. Pinned apart they spread 4-7 %.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def _request(request_id: int, query_index: int) -> bytes:
    return (json.dumps(
        {"id": request_id, "op": "search", "query_index": query_index}
    ) + "\n").encode()


class ServerProcess:
    """The serve CLI as a child process, up to its ``serving`` line."""

    def __init__(self, engine: bool) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--scale", "small",
                   "--port", "0", "--seed", str(SYSTEM_SEED)]
        if not engine:
            command.append("--no-engine")
        # This process is pinned for as long as the server lives.
        self._unpinned = os.sched_getaffinity(0)
        cpus = self.cpus = split_cpus()
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[0]})
        # Unbuffered pipe: select() must see every line still unread.
        # stderr shares it because the server logs one cancelled
        # connection handler per open connection whenever it shuts down;
        # the output is shown only if the server exits with an error.
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            bufsize=0, env=program_env(), cwd=REPO_ROOT,
            # Before exec, so every thread the server starts inherits it.
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpus[1]})) if cpus else None,
        )
        try:
            self.port = self._await_serving()
        except BaseException:
            self.kill()
            raise

    def _await_serving(self) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        seen = b""
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([stdout], [], [], max(remaining, 0.0))
            line = stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    "server did not reach its 'serving' line; it printed:\n"
                    + seen.decode(errors="replace")
                )
            match = _SERVING.match(line)
            if match:
                return int(match.group(1))
            seen += line

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        os.sched_setaffinity(0, self._unpinned)

    def wait_exit(self) -> None:
        """Wait for the exit a ``shutdown`` op started; kill on overrun."""
        try:
            output, _ = self.process.communicate(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return
        os.sched_setaffinity(0, self._unpinned)
        if self.process.returncode != 0:
            sys.stderr.write(output.decode(errors="replace"))


class _ServeWorkload(Workload):
    operation = "request"
    engine = True
    n_connections = 1
    n_requests = 0  # per round

    def setup(self) -> None:
        self.server = ServerProcess(self.engine)
        self.loop = asyncio.new_event_loop()
        try:
            self.connections: List[Connection] = [
                self.loop.run_until_complete(asyncio.wait_for(
                    asyncio.open_connection("127.0.0.1", self.server.port),
                    timeout=REPLY_TIMEOUT_S,
                ))
                for _ in range(self.n_connections)
            ]
            stats = self.loop.run_until_complete(self._ask({"id": "s", "op": "stats"}))
            self.pool = int(stats["n_queries"])
            self._draw_requests(0)
            self._short_warmup()
        except BaseException:
            self.server.kill()
            self.loop.close()
            raise

    def _short_warmup(self) -> None:
        raise NotImplementedError

    def _probe(self, prober: Prober) -> None:
        """One probe sample taken on the server's CPU (the server is
        idle: no request is outstanding between slices)."""
        cpus = self.server.cpus
        if cpus is None:
            prober.sample()
            return
        os.sched_setaffinity(0, {cpus[1]})
        try:
            prober.sample()
        finally:
            os.sched_setaffinity(0, {cpus[0]})

    def _draw_requests(self, draw: int) -> None:
        """The round's request lines: the ``draw``-th order of the seed."""
        indices = query_index_stream(self.seed, self.n_requests, self.pool, draw)
        self.requests = [_request(i, q) for i, q in enumerate(indices)]

    async def _ask(self, message: Dict[str, Any]) -> Dict[str, Any]:
        reader, writer = self.connections[0]
        writer.write((json.dumps(message) + "\n").encode())
        line = await asyncio.wait_for(reader.readline(), timeout=REPLY_TIMEOUT_S)
        return json.loads(line)

    def _failed(self, replies: Sequence[Optional[Dict[str, Any]]]) -> int:
        """Replies that are missing, not ``ok`` or not ``completed``
        (each reply sits at the index of its own id, so a wrong or
        duplicate id shows as a missing reply elsewhere)."""
        return sum(
            1 for reply in replies
            if reply is None or not reply.get("ok")
            or reply.get("status") != "completed"
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)

    async def _shutdown(self) -> None:
        await self._ask({"id": "x", "op": "shutdown"})
        for _, writer in self.connections:
            writer.close()
            await asyncio.wait_for(writer.wait_closed(), timeout=REPLY_TIMEOUT_S)

    def teardown(self) -> None:
        try:
            self.loop.run_until_complete(self._shutdown())
        except (OSError, asyncio.TimeoutError, ValueError):
            self.server.kill()
        finally:
            self.server.wait_exit()
            self.loop.close()


class ServeSaturate(_ServeWorkload):
    """Closed loop on the engine-less server: 2 connections x 16
    requests in flight. Front door + node + kernel do all the work."""

    name = "serve-saturate"
    engine = False
    n_connections = 2
    in_flight = 16
    #: ~0.75 s rounds: the tail takes the best round, and the best of a
    #: dozen repeats across runs better than the best of six 10,000-request
    #: rounds did (spread over ten runs 7 % against 10-15 %).
    n_requests = 5_000
    slice_len = 1_000  # ~0.15 s between probes

    def _short_warmup(self) -> None:
        self.loop.run_until_complete(self._slice(0, 256, [None] * 256, [0.0] * 256,
                                                 [0.0] * 256))

    async def _pump(
        self, connection: Connection, ids: Sequence[int], base: int,
        replies: List[Optional[Dict[str, Any]]], sent: List[float], done: List[float],
    ) -> None:
        """Keep ``in_flight`` requests outstanding on one connection
        until every id in ``ids`` has been answered."""
        reader, writer = connection
        clock = time.perf_counter
        requests = self.requests
        issued = 0
        for request_id in ids[:self.in_flight]:
            sent[request_id - base] = clock()
            writer.write(requests[request_id])
            issued += 1
        for _ in range(len(ids)):
            line = await asyncio.wait_for(reader.readline(), timeout=REPLY_TIMEOUT_S)
            now = clock()
            if not line:
                return
            reply = json.loads(line)
            slot = reply.get("id")
            if isinstance(slot, int) and 0 <= slot - base < len(replies):
                replies[slot - base] = reply
                done[slot - base] = now
            if issued < len(ids):
                sent[ids[issued] - base] = clock()
                writer.write(requests[ids[issued]])
                issued += 1

    async def _slice(
        self, start: int, stop: int, replies: List[Optional[Dict[str, Any]]],
        sent: List[float], done: List[float],
    ) -> None:
        ids = range(start, stop)
        await asyncio.gather(*(
            self._pump(connection, ids[k::self.n_connections], start,
                       replies, sent, done)
            for k, connection in enumerate(self.connections)
        ))

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        clock = time.perf_counter
        latencies: List[float] = []
        failed = 0
        wall = 0.0
        cpu_0 = cpu_seconds(self.server.pid)
        self._probe(prober)
        for start in range(0, self.n_requests, self.slice_len):
            stop = min(start + self.slice_len, self.n_requests)
            size = stop - start
            replies: List[Optional[Dict[str, Any]]] = [None] * size
            sent = [0.0] * size
            done = [0.0] * size
            wall_0 = clock()
            self.loop.run_until_complete(self._slice(start, stop, replies, sent, done))
            wall += clock() - wall_0
            failed += self._failed(replies)
            for k, reply in enumerate(replies):
                if reply is None:
                    continue
                latencies.append((done[k] - sent[k]) * 1e3)
                if recorder is not None:
                    op = recorder.add("client", sent[k], done[k], None, start + k)
                    model_end = min(sent[k] + reply.get("latency_s", 0.0), done[k])
                    recorder.add("server.model", sent[k], model_end, op, start + k)
            self._probe(prober)
        return RoundSample(
            ops=self.n_requests, failed=failed, wall_s=wall,
            cpu_s=cpu_seconds(self.server.pid) - cpu_0,
            latencies_ms=latencies, probe_s=prober.take(), guarded=False,
        )


class PacedRecord:
    """Everything observed about one paced round, per request."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.replies: List[Optional[Dict[str, Any]]] = [None] * n
        self.reply_bytes = [0] * n


class ServePaced(_ServeWorkload):
    """Open loop on the engine-on server: a Poisson schedule at 400
    req/s over one pipelined connection, every request timed from when
    it was due."""

    name = "serve-paced"
    engine = True
    n_connections = 1
    #: One pass over the pool, 0.75 s of schedule. Short rounds, because
    #: the box stalls every few seconds and a round with a stall in it
    #: says nothing about the server's own tail: with 900-request rounds
    #: half the rounds held one, and the best round's p99 spread 16-22 %
    #: over ten runs; with 300-request rounds 6 %.
    n_requests = 300
    segment_len = 150  # 0.375 s of schedule between probes

    def setup(self) -> None:
        self.draw = 0
        super().setup()

    def _short_warmup(self) -> None:
        warm = PacedRecord(64)
        self.loop.run_until_complete(
            self._segment(0, 64, np.arange(64) / PACED_RATE, warm)
        )

    async def _read(self, start: int, stop: int, record: PacedRecord) -> None:
        reader, _ = self.connections[0]
        clock = time.perf_counter
        for _ in range(stop - start):
            line = await asyncio.wait_for(reader.readline(), timeout=REPLY_TIMEOUT_S)
            now = clock()
            if not line:
                return
            reply = json.loads(line)
            slot = reply.get("id")
            if isinstance(slot, int) and start <= slot < stop:
                record.replies[slot] = reply
                record.done[slot] = now
                record.reply_bytes[slot] = len(line)

    async def _segment(
        self, start: int, stop: int, due: np.ndarray, record: PacedRecord
    ) -> float:
        """Send requests ``start..stop`` at their due times (``due`` is
        relative to the segment), wait for every reply; returns the
        segment's wall time from its first due request."""
        _, writer = self.connections[0]
        clock = time.perf_counter
        reader_task = asyncio.get_running_loop().create_task(
            self._read(start, stop, record)
        )
        origin = clock() + 0.002 - float(due[0])
        try:
            for k in range(start, stop):
                due_at = origin + float(due[k - start])
                delay = due_at - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                record.due[k] = due_at
                record.sent[k] = clock()
                writer.write(self.requests[k])
            await asyncio.wait_for(reader_task, timeout=REPLY_TIMEOUT_S)
        finally:
            reader_task.cancel()
        return clock() - record.due[start]

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        # Every round replays another schedule and request order of the
        # seed: a round's p99 follows its schedule's bursts, and the
        # best of several schedules is steadier across seeds than one
        # schedule's floor.
        self.draw += 1
        self._draw_requests(self.draw)
        schedule = poisson_schedule(self.seed, PACED_RATE, self.n_requests, self.draw)
        record = PacedRecord(self.n_requests)
        wall = 0.0
        cpu_0 = cpu_seconds(self.server.pid)
        self._probe(prober)
        for start in range(0, self.n_requests, self.segment_len):
            stop = min(start + self.segment_len, self.n_requests)
            wall += self.loop.run_until_complete(
                self._segment(start, stop, schedule[start:stop], record)
            )
            self._probe(prober)
        cpu = cpu_seconds(self.server.pid) - cpu_0
        answered = [k for k, reply in enumerate(record.replies) if reply is not None]
        latencies = [(record.done[k] - record.due[k]) * 1e3 for k in answered]
        lags = [(record.sent[k] - record.due[k]) * 1e3 for k in range(self.n_requests)]
        lag_p99 = percentile(lags, 99.0)
        if recorder is not None:
            for k in answered:
                op = recorder.add("client", record.due[k], record.done[k], None, k)
                recorder.add("loadgen.lag", record.due[k], record.sent[k], op, k)
                model_end = min(
                    record.sent[k] + record.replies[k].get("latency_s", 0.0),
                    record.done[k],
                )
                recorder.add("server.model", record.sent[k], model_end, op, k)
        self.last_record = record
        return RoundSample(
            ops=self.n_requests, failed=self._failed(record.replies), wall_s=wall,
            cpu_s=cpu, latencies_ms=latencies, probe_s=prober.take(),
            valid=lag_p99 <= MAX_SEND_LAG_P99_MS, paced=True, guarded=False,
            extra={
                "send_lag_ms_p50": percentile(lags, 50.0),
                "send_lag_ms_p99": lag_p99,
                "slo_miss_share": sum(1 for ms in latencies if ms > SLO_MS)
                / self.n_requests,
            },
        )

    def verify(self) -> int:
        """Sampled replies' results must equal the in-process engine on
        the same ``(query_index, degree)``."""
        from repro.harness.context import ExperimentContext, Scale
        from repro.harness.live import engine_search_for

        system = ExperimentContext(scale=Scale.SMALL, seed=SYSTEM_SEED).system
        search = engine_search_for(system)
        replies = self.last_record.replies
        step = max(len(replies) // CHECKED_REPLIES, 1)
        wrong = 0
        for reply in replies[::step][:CHECKED_REPLIES]:
            if reply is None or reply.get("status") != "completed":
                continue  # already counted as failed by its round
            expected = search(reply["query_index"], reply["degree"])
            if [list(pair) for pair in expected] != reply.get("results"):
                wrong += 1
        return wrong
