"""End-to-end integration: corpus -> index -> engine -> profile -> policy
-> simulation, asserting the paper's qualitative claims hold on a fresh
(small) stack built inside the test."""

import pytest

from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.corpus.generator import CorpusConfig
from repro.index.builder import IndexConfig
from repro.workloads.workbench import WorkbenchConfig, build_workbench


@pytest.fixture(scope="module")
def system():
    workbench = build_workbench(
        WorkbenchConfig(
            corpus=CorpusConfig(n_docs=6_000, vocab_size=8_000, seed=21),
            index=IndexConfig(chunk_size=128),
            seed=21,
        )
    )
    return AdaptiveSearchSystem.from_workbench(
        workbench,
        SystemConfig(n_queries=300, degrees=(1, 2, 4, 8), n_cores=8, seed=21),
    )


def test_service_times_heavy_tailed(system):
    assert system.service_distribution.tail_ratio() > 4.0


def test_long_queries_parallelize_better(system):
    profile = system.profile
    assert profile.speedup(4, 2) > 1.5 * profile.speedup(4, 0)


def test_parallelism_costs_work(system):
    assert system.profile.work_inflation(8) > system.profile.work_inflation(2) > 1.0


def test_threshold_table_monotone_from_real_profile(system):
    degrees = [system.threshold_table.degree_for(n) for n in range(1, 12)]
    assert degrees == sorted(degrees, reverse=True)
    assert degrees[0] > 1


def test_headline_envelope_tracking(system):
    """The paper's main claim at integration scale."""
    comparison = system.sweep(
        ["sequential", "fixed-4", "adaptive"],
        [0.1, 0.5, 0.8],
        duration=4.0,
        warmup=1.0,
    )
    p99_seq = comparison.p99("sequential")
    p99_fx4 = comparison.p99("fixed-4")
    p99_ada = comparison.p99("adaptive")
    # Low load: adaptive ~ fixed-4, much better than sequential.
    assert p99_ada[0] < 0.7 * p99_seq[0]
    # High load: adaptive ~ sequential, much better than fixed-4.
    assert p99_ada[-1] < 0.5 * p99_fx4[-1]
    assert p99_ada[-1] < 1.3 * p99_seq[-1]


def test_degree_mix_shifts_with_load(system):
    low = system.run_point("adaptive", system.rate_for_utilization(0.1),
                           duration=3.0, warmup=0.5)
    high = system.run_point("adaptive", system.rate_for_utilization(0.8),
                            duration=3.0, warmup=0.5)
    assert low.mean_degree > high.mean_degree


def test_oracle_no_worse_tail_with_less_cpu(system):
    comparison = system.sweep(
        ["adaptive", "oracle"], [0.3], duration=4.0, warmup=1.0
    )
    adaptive = comparison.summaries["adaptive"][0]
    oracle = comparison.summaries["oracle"][0]
    assert oracle.mean_degree <= adaptive.mean_degree
    # Oracle spends notably less CPU; its tail stays in the same band
    # (queries just under the length cutoff run sequentially, so it can
    # trail plain adaptive slightly at the P99).
    assert oracle.p99_latency <= 1.35 * adaptive.p99_latency
