"""Experiment harness: regenerates every table/figure of the evaluation.

Each experiment module under :mod:`repro.harness.experiments` exposes
``run(ctx) -> ExperimentResult``; the registry maps experiment ids
(``e01`` … ``e20``) to them. ``python -m repro <id>`` runs one from the
command line.
"""

from repro.harness.context import ExperimentContext, Scale
from repro.harness.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.harness.result import CheckOutcome, ExperimentResult

__all__ = [
    "ExperimentContext",
    "Scale",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "CheckOutcome",
    "ExperimentResult",
]
