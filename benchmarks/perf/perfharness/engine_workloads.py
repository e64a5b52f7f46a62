"""engine-single and engine-batch: the engine called in process on a
memory-mapped format-v2 shard. Closed loop, one caller."""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, List, Optional, Sequence

from perfharness.inputs import DEGREE_CYCLE, engine_workbench_config, query_stream
from perfharness.spans import SpanRecorder
from perfharness.spec import OUT_DIR
from perfharness.stats import Prober, RoundSample
from perfharness.workload import Workload

from repro.engine import Engine
from repro.index.io import load_index, save_index
from repro.workloads.workbench import build_workbench

#: Queries answered inside ``setup`` (the short warm-up).
SHORT_WARMUP = 256
#: Batch results checked against ``Engine.execute(q, 1)``.
BATCH_CHECKED_PREFIX = 256


def results_digest(results: Sequence[Any]) -> str:
    """sha256 over every result's ``(doc_ids, scores, chunks_evaluated)``
    (``repr`` of a float is exact, so equal digests mean equal bits)."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(
            repr((result.doc_ids, result.scores, result.chunks_evaluated)).encode()
        )
    return hasher.hexdigest()


class EngineShard:
    """The 30k-doc workbench, saved as v2, reopened with mmap."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="shard-", dir=OUT_DIR))
        started = time.perf_counter()
        self.workbench = build_workbench(engine_workbench_config())
        built = time.perf_counter()
        self.path = save_index(self.workbench.index, self.directory / "shard_v2")
        saved = time.perf_counter()
        self.index = load_index(self.path)
        opened = time.perf_counter()
        self.build_s = built - started
        self.save_s = saved - built
        self.open_s = opened - saved
        self.engine = Engine(self.index)

    def disk_mb(self) -> float:
        return sum(f.stat().st_size for f in self.path.iterdir()) / 2**20

    def remove(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class _EngineWorkload(Workload):
    stream = ""
    n_queries = 0

    def setup(self) -> None:
        self.shard = EngineShard()
        self.engine = self.shard.engine
        self.queries = query_stream(
            self.shard.workbench, self.stream, self.n_queries, self.seed
        )
        self._short_warmup()

    def _short_warmup(self) -> None:
        raise NotImplementedError

    def _finish_round(self, sample: RoundSample, results: List[Any]) -> RoundSample:
        sample.digest = results_digest(results)
        self.last_results = results
        return self._check_digest(sample)

    def teardown(self) -> None:
        self.shard.remove()
        del self.shard, self.engine, self.queries


class EngineSingle(_EngineWorkload):
    """One ``Engine.execute(q, degree)`` call per query, degree cycling
    1,1,2,4 by stream position."""

    name = "engine-single"
    stream = "perf"
    n_queries = 1_280
    slice_len = 80  # ~100 ms between probes

    def _short_warmup(self) -> None:
        for i, query in enumerate(self.queries[:SHORT_WARMUP]):
            self.engine.execute(query, DEGREE_CYCLE[i % 4])

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        engine, queries = self.engine, self.queries
        clock = time.perf_counter
        latencies: List[float] = []
        results: List[Any] = []
        wall = cpu = 0.0
        prober.sample()
        for start in range(0, len(queries), self.slice_len):
            stop = min(start + self.slice_len, len(queries))
            cpu_0 = time.process_time()
            wall_0 = clock()
            if recorder is None:
                for i in range(start, stop):
                    began = clock()
                    result = engine.execute(queries[i], DEGREE_CYCLE[i % 4])
                    latencies.append((clock() - began) * 1e3)
                    results.append(result)
            else:
                # The same work as Engine.execute, split at its one
                # internal boundary: plan build, then the executor.
                for i in range(start, stop):
                    began = clock()
                    trace = engine.trace(queries[i])
                    planned = clock()
                    result = engine.execute_trace(trace, DEGREE_CYCLE[i % 4])
                    ended = clock()
                    latencies.append((ended - began) * 1e3)
                    results.append(result)
                    op = recorder.add("op", began, ended, None, i)
                    recorder.add("engine.plan", began, planned, op, i)
                    recorder.add("engine.execute", planned, ended, op, i)
            wall += clock() - wall_0
            cpu += time.process_time() - cpu_0
            prober.sample()
        sample = RoundSample(
            ops=len(queries), failed=0, wall_s=wall, cpu_s=cpu,
            latencies_ms=latencies, probe_s=prober.take(),
        )
        return self._finish_round(sample, results)


class EngineBatch(_EngineWorkload):
    """``Engine.execute_batch`` in calls of 64. A query's latency is the
    duration of the call that carried it."""

    name = "engine-batch"
    stream = "perf-batch"
    n_queries = 2_048
    call_len = 64
    calls_per_slice = 4  # ~150 ms between probes

    def _short_warmup(self) -> None:
        for start in range(0, SHORT_WARMUP, self.call_len):
            self.engine.execute_batch(self.queries[start:start + self.call_len])

    def run_round(
        self, prober: Prober, recorder: Optional[SpanRecorder] = None
    ) -> RoundSample:
        engine, queries = self.engine, self.queries
        clock = time.perf_counter
        slice_len = self.call_len * self.calls_per_slice
        latencies: List[float] = []
        results: List[Any] = []
        wall = cpu = 0.0
        prober.sample()
        for slice_start in range(0, len(queries), slice_len):
            slice_stop = min(slice_start + slice_len, len(queries))
            cpu_0 = time.process_time()
            wall_0 = clock()
            for start in range(slice_start, slice_stop, self.call_len):
                batch = queries[start:start + self.call_len]
                began = clock()
                answered = engine.execute_batch(batch)
                ended = clock()
                latencies.append((ended - began) * 1e3)
                results.extend(answered)
                if recorder is not None:
                    call = start // self.call_len
                    op = recorder.add("call", began, clock(), None, call)
                    recorder.add("engine.execute_batch", began, ended, op, call)
            wall += clock() - wall_0
            cpu += time.process_time() - cpu_0
            prober.sample()
        sample = RoundSample(
            ops=len(queries), failed=0, wall_s=wall, cpu_s=cpu,
            latencies_ms=latencies, probe_s=prober.take(),
        )
        return self._finish_round(sample, results)

    def verify(self) -> int:
        """The checked prefix must be bit-identical to per-query
        sequential execution."""
        wrong = 0
        for query, batched in zip(
            self.queries[:BATCH_CHECKED_PREFIX], self.last_results
        ):
            single = self.engine.execute(query, 1)
            if (
                single.results != batched.results
                or single.latency != batched.latency
                or single.chunks_evaluated != batched.chunks_evaluated
                or single.postings_scanned != batched.postings_scanned
            ):
                wrong += 1
        return wrong
