"""E16 (extension) — Corpus-structure sensitivity: topical co-occurrence.

The default synthetic corpus draws tokens independently, so conjunctive
match rates are popularity products. Real text is topical — terms
cluster, and users query within topics. This experiment rebuilds the
whole pipeline (corpus → index → profile → policy → simulation) on a
latent-topic corpus with topic-coherent queries and verifies that the
paper's core dynamics survive the change in co-occurrence structure:
a heavy service-time tail, strong long-query speedup, and a large
low-load P99 cut from the adaptive policy with no high-load regression.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.corpus.topical import TopicModelConfig, generate_topical_corpus
from repro.engine.executor import Engine
from repro.harness.context import ExperimentContext
from repro.harness.result import ExperimentResult
from repro.index.builder import build_index
from repro.util.tables import Table
from repro.workloads.topical import TopicalQueryGenerator
from repro.workloads.workbench import Workbench

EXPERIMENT_ID = "e16"
TITLE = "Corpus-structure sensitivity: topical co-occurrence"


def _build_topical_system(ctx: ExperimentContext) -> AdaptiveSearchSystem:
    base = ctx.system
    base_config = ctx.workbench_config()
    vocab = base_config.corpus.vocab_size
    topic_config = TopicModelConfig(
        n_topics=max(10, vocab // 600),
        topic_vocab=max(50, vocab // 15),
    )
    corpus, model = generate_topical_corpus(
        base_config.corpus,
        topic_config,
        rng=base.workbench.rng_factory.stream("topical-corpus"),
    )
    index = build_index(corpus, base_config.index)
    workbench = Workbench(
        config=base_config,
        corpus=corpus,
        index=index,
        engine=Engine(index),
        rng_factory=base.workbench.rng_factory.child("topical"),
    )
    generator = TopicalQueryGenerator(
        model,
        replace(base_config.workload, seed=base.config.seed),
        workbench.rng_factory.stream("topical-queries"),
    )
    n_queries = max(250, ctx.params.n_profile_queries // 3)
    return AdaptiveSearchSystem.from_workbench(
        workbench,
        SystemConfig(
            n_queries=n_queries,
            degrees=base.config.degrees,
            n_cores=base.config.n_cores,
            seed=base.config.seed,
        ),
        queries=generator.sample_many(n_queries),
    )


def run(ctx: ExperimentContext) -> ExperimentResult:
    base = ctx.system
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        description=(
            "The full pipeline rebuilt on a latent-topic corpus with "
            "topic-coherent queries, side by side with the independent-"
            "draw baseline corpus."
        ),
    )
    topical = _build_topical_system(ctx)

    rows = {}
    table = Table(
        ["corpus", "mean t1 (ms)", "p99/p50", "long S(widest)",
         "adaptive P99 cut @ low", "adaptive vs seq @ high"],
        title="Independent vs topical corpus",
    )
    for label, system in (("independent", base), ("topical", topical)):
        dist = system.service_distribution
        profile = system.profile
        widest = profile.degrees[-1]
        low_rate = system.rate_for_utilization(0.1)
        high_rate = system.rate_for_utilization(0.85)
        duration, warmup = ctx.sim_duration / 2, ctx.sim_warmup / 2
        seq_low = system.run_point("sequential", low_rate, duration, warmup)
        ada_low = system.run_point("adaptive", low_rate, duration, warmup)
        seq_high = system.run_point("sequential", high_rate, duration, warmup)
        ada_high = system.run_point("adaptive", high_rate, duration, warmup)
        rows[label] = {
            "mean_t1_ms": dist.mean * 1e3,
            "tail_ratio": dist.tail_ratio(),
            "long_speedup": profile.speedup(widest, profile.n_classes - 1),
            "low_gain": 1.0 - ada_low.p99_latency / seq_low.p99_latency,
            "high_ratio": ada_high.p99_latency / seq_high.p99_latency,
        }
        table.add_row([label] + list(rows[label].values()))
    result.add_table(table)

    topical_row = rows["topical"]
    independent_row = rows["independent"]
    result.add_check(
        "the topical corpus keeps a skewed service-time tail "
        "(>= 3x median, and >= 15% of the independent corpus's skew)",
        topical_row["tail_ratio"] >= 3.0
        and topical_row["tail_ratio"] >= 0.15 * independent_row["tail_ratio"],
        f"topical {topical_row['tail_ratio']:.1f} vs independent "
        f"{independent_row['tail_ratio']:.1f}",
    )
    result.add_check(
        "long queries still benefit from parallelism (S > 1.2 and within "
        "40% of the independent corpus)",
        topical_row["long_speedup"] > 1.2
        and topical_row["long_speedup"] >= 0.6 * independent_row["long_speedup"],
        f"topical S {topical_row['long_speedup']:.2f} vs independent "
        f"{independent_row['long_speedup']:.2f}",
    )
    result.add_check(
        "adaptive still cuts low-load P99 by >= 30%",
        topical_row["low_gain"] >= 0.30,
        f"cut {topical_row['low_gain']*100:.0f}%",
    )
    result.add_check(
        "adaptive still tracks sequential at high load (<= 25% above)",
        topical_row["high_ratio"] <= 1.25,
        f"ratio {topical_row['high_ratio']:.2f}",
    )
    result.data = {"corpora": rows}
    return result
