"""The reference workbench: corpus + index + engine + query stream.

Experiments, examples, and benchmarks all need the same stack
(synthetic shard, inverted index, engine, workload generator) wired
consistently. :func:`build_workbench` assembles it from one seed, and a
small process-level cache avoids rebuilding the shard for every
benchmark in a session.

Sizing presets:

* ``WorkbenchConfig.small()`` — quick unit-test scale (seconds to build);
* ``WorkbenchConfig.reference()`` — the default experiment scale,
  chosen so the sequential service-time distribution has the
  milliseconds-median / tens-of-milliseconds-tail shape reported for
  production index-serving nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.corpus.documents import Corpus
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.engine.executor import Engine
from repro.index.builder import IndexConfig, build_index
from repro.index.inverted import InvertedIndex
from repro.util.rng import RngFactory
from repro.workloads.queries import QueryGenerator, QueryWorkloadConfig


@dataclass(frozen=True)
class WorkbenchConfig:
    """Complete configuration of a reproducible workbench."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    seed: int = 0

    @property
    def workload(self) -> QueryWorkloadConfig:
        """The query stream, aligned with the corpus vocabulary."""
        return QueryWorkloadConfig(vocab_size=self.corpus.vocab_size)

    @staticmethod
    def small(seed: int = 0) -> "WorkbenchConfig":
        """Unit-test scale: builds in well under a second."""
        return WorkbenchConfig(
            corpus=CorpusConfig(n_docs=4_000, vocab_size=6_000, seed=seed),
            index=IndexConfig(chunk_size=128),
            seed=seed,
        )

    @staticmethod
    def reference(seed: int = 0) -> "WorkbenchConfig":
        """Experiment scale (see module docstring)."""
        return WorkbenchConfig(
            corpus=CorpusConfig(n_docs=60_000, vocab_size=30_000, seed=seed),
            index=IndexConfig(chunk_size=128),
            seed=seed,
        )


@dataclass
class Workbench:
    """An assembled corpus/index/engine/workload stack."""

    config: WorkbenchConfig
    corpus: Corpus
    index: InvertedIndex
    engine: Engine
    rng_factory: RngFactory

    def query_generator(self, stream: str = "queries") -> QueryGenerator:
        """A fresh, deterministic query generator on the named RNG stream."""
        return QueryGenerator(self.config.workload, self.rng_factory.stream(stream))


def build_workbench(config: Optional[WorkbenchConfig] = None) -> Workbench:
    """Assemble a workbench from ``config`` (reference scale by default)."""
    config = config or WorkbenchConfig.reference()
    factory = RngFactory(config.seed)
    corpus = generate_corpus(config.corpus, factory.stream("corpus"))
    index = build_index(corpus, config.index)
    engine = Engine(index)
    return Workbench(
        config=config,
        corpus=corpus,
        index=index,
        engine=engine,
        rng_factory=factory,
    )


_CACHE: Dict[WorkbenchConfig, Workbench] = {}


def cached_workbench(config: Optional[WorkbenchConfig] = None) -> Workbench:
    """Process-level cached :func:`build_workbench`.

    Benchmarks and the experiment harness share one shard per
    configuration instead of regenerating it per test. Do not mutate the
    returned workbench.
    """
    config = config or WorkbenchConfig.reference()
    cached = _CACHE.get(config)
    if cached is None:
        cached = build_workbench(config)
        _CACHE[config] = cached
    return cached
