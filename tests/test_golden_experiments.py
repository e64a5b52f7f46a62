"""Golden regression: representative experiments are bit-identical.

The clock extraction (core/clock.py) made the server model
clock-agnostic with the promise that results change by *zero bits*, and
the scheduling decisions it briefly moved into a separate module went
back into ``sim/server.py`` under the same promise. These goldens were
captured at small scale before the first refactor; e05 (fixed-degree
load sweep), e09 (bursty MMPP2 arrivals with adaptive probing), and e19
(overload: deadlines, shedding, faults, hedging) jointly cover
admission, deadline shedding, degree granting, probe planning, and
escalation — every decision the server model makes. e20 (regime shifts: online tail-feedback control, anomaly
guard, class shedding) was added when the live serving runtime rehosted
the server model on wall-clock schedulers: it exercises the
controller-attachment path that both hostings now share.

The fixture directory holds all twenty experiments' small-scale JSON:
CI's experiments job diffs every ``--all --json-dir`` output against it,
and this tier-1 test replays the four above. If a change legitimately
alters results (new model semantics, not a refactor), regenerate all
twenty with ``REPRO_SCALE=small python -m repro --all --json-dir <dir>``
and copy each ``<dir>/<id>.json`` to ``<id>.small.json`` here (the CLI
writes the same bytes as the comparison below), and document why in the
commit message.
"""

import json
from pathlib import Path

import pytest

from repro.harness.context import ExperimentContext, Scale
from repro.harness.registry import run_experiment

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


@pytest.mark.parametrize("experiment_id", ["e05", "e09", "e19", "e20"])
def test_small_scale_output_matches_golden(experiment_id):
    result = run_experiment(
        experiment_id, ExperimentContext(scale=Scale.SMALL)
    )
    text = json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
    golden = (GOLDEN / f"{experiment_id}.small.json").read_text()
    assert text == golden
