"""Bit-identity golden for the engine's results.

Every engine speed-up must leave every result unchanged, to the last
bit. This pins a SHA-256 over the plain values of 300 small-workbench
queries, each executed under three termination configurations at four
degrees. Only plain values are hashed (ints, floats, strings and lists
of them), never an object's ``repr``, so changing a record type does not
move the digest; changing any number does.
"""

import hashlib

from repro.engine.executor import Engine, EngineConfig
from repro.engine.termination import TerminationConfig

TERMINATIONS = (
    TerminationConfig(match_budget=None, use_score_bound=False),  # exhaustive
    TerminationConfig(match_budget=None, use_score_bound=True),  # score bound only
    TerminationConfig(),  # default: match budget and score bound
)
DEGREES = (1, 2, 4, 8)
N_QUERIES = 300

#: Computed before the merge loop was rewritten for speed, and committed
#: unchanged since; a change that moves it changes some result.
DIGEST = "e70ded96acec090ea177a6866850b2b3054b9e181094baa5c426ae53b00b6c72"


def _plain(result):
    return (
        [int(doc_id) for doc_id in result.doc_ids],
        [float(score) for score in result.scores],
        float(result.latency),
        float(result.cpu_time),
        int(result.chunks_evaluated),
        int(result.postings_scanned),
        int(result.docs_matched),
        result.termination_rule,
        [float(busy) for busy in result.worker_busy],
    )


def test_engine_results_match_the_golden_digest(small_workbench):
    queries = small_workbench.query_generator("engine-golden").sample_many(N_QUERIES)
    digest = hashlib.sha256()
    for termination in TERMINATIONS:
        engine = Engine(small_workbench.index, EngineConfig(termination=termination))
        for query in queries:
            trace = engine.trace(query)
            for degree in DEGREES:
                result = engine.execute_trace(trace, degree)
                digest.update(repr(_plain(result)).encode())
    assert digest.hexdigest() == DIGEST
