"""Kernel microbenchmarks: the engine and simulator hot paths.

Unlike the ``bench_eXX`` experiment benchmarks (run-once, end-to-end),
these use pytest-benchmark conventionally to time the building blocks:
corpus generation, index build, chunk scoring, query execution at
several degrees, top-k maintenance, and simulator event throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.engine.topk import TopK
from repro.index.builder import IndexConfig, build_index
from repro.sim.engine import Simulator
from repro.text.zipf import ZipfMandelbrot
from repro.workloads.workbench import WorkbenchConfig, cached_workbench


@pytest.fixture(scope="module")
def bench_workbench():
    return cached_workbench(WorkbenchConfig.small(seed=0))


@pytest.fixture(scope="module")
def long_query(bench_workbench):
    """A long (many-chunk) query for execution benchmarks."""
    generator = bench_workbench.query_generator("bench-queries")
    queries = generator.sample_many(40)
    engine = bench_workbench.engine
    return max(queries, key=lambda q: engine.execute(q, 1).chunks_evaluated)


def test_corpus_generation(benchmark):
    config = CorpusConfig(n_docs=2_000, vocab_size=4_000, seed=1)
    benchmark(generate_corpus, config)


def test_index_build(benchmark):
    corpus = generate_corpus(CorpusConfig(n_docs=2_000, vocab_size=4_000, seed=1))
    benchmark(build_index, corpus, IndexConfig(chunk_size=128))


def test_zipf_sampling(benchmark):
    zipf = ZipfMandelbrot(30_000, 1.05, 2.7)
    rng = np.random.default_rng(0)
    benchmark(zipf.sample, rng, 100_000)


def test_query_planning(benchmark, bench_workbench, long_query):
    benchmark(bench_workbench.engine.plan, long_query)


def test_chunk_scoring(benchmark, bench_workbench, long_query):
    plan = bench_workbench.engine.plan(long_query)
    benchmark(plan.score_chunk, 0)


def test_multi_chunk_scoring(benchmark, bench_workbench, long_query):
    """The batched kernel over every candidate chunk of a long query."""
    plan = bench_workbench.engine.plan(long_query)
    positions = list(range(plan.n_candidate_chunks))
    benchmark(plan.score_chunks, positions)


def test_batched_query_throughput(benchmark, bench_workbench):
    """Queries/sec headline: a query batch through the batched executor."""
    queries = bench_workbench.query_generator("bench-batch").sample_many(100)
    executor = bench_workbench.engine.batch_executor(
        initial_wave=16, max_wave=256
    )
    benchmark(executor.execute, queries)


@pytest.mark.parametrize("degree", [1, 4, 8])
def test_query_execution(benchmark, bench_workbench, long_query, degree):
    engine = bench_workbench.engine
    benchmark(engine.execute, long_query, degree)


def test_topk_offers(benchmark):
    rng = np.random.default_rng(2)
    scores = rng.random(10_000)
    doc_ids = np.arange(10_000, dtype=np.int64)

    def run():
        topk = TopK(10)
        topk.offer_many(scores, doc_ids)
        return topk

    benchmark(run)


def test_simulator_event_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    benchmark(run)


def test_load_point_simulation(benchmark, bench_workbench):
    """End-to-end cost of one simulated load point (sequential policy)."""
    from repro.policies.fixed import SequentialPolicy
    from repro.profiles.measurement import MeasurementConfig, measure_cost_table
    from repro.sim.experiment import LoadPointConfig, run_load_point
    from repro.sim.oracle import ServiceOracle

    queries = bench_workbench.query_generator("bench-sim").sample_many(120)
    table = measure_cost_table(
        bench_workbench.engine, queries,
        MeasurementConfig(degrees=(1,), n_queries=120),
    )
    oracle = ServiceOracle(table)
    rate = 0.3 * 8 / oracle.mean_sequential_latency() / 8  # u=0.3 per core
    config = LoadPointConfig(rate=rate * 8, duration=2.0, warmup=0.5,
                             n_cores=8, seed=3)
    benchmark(run_load_point, oracle, SequentialPolicy(), config)


def test_threshold_derivation(benchmark, bench_workbench):
    from repro.policies.derivation import derive_threshold_table
    from repro.profiles.measurement import MeasurementConfig, measure_cost_table
    from repro.profiles.speedup import SpeedupProfile

    queries = bench_workbench.query_generator("bench-derive").sample_many(80)
    table = measure_cost_table(
        bench_workbench.engine, queries,
        MeasurementConfig(degrees=(1, 2, 4, 8), n_queries=80),
    )
    profile = SpeedupProfile(table)
    benchmark(derive_threshold_table, profile, 12)


def test_index_load_mmap(benchmark, bench_workbench, tmp_path_factory):
    """O(1) open of a shard (memory-mapped columns)."""
    from repro.index.io import load_index, save_index

    path = tmp_path_factory.mktemp("bench") / "shard_v2"
    save_index(bench_workbench.index, path)
    benchmark(load_index, path)
