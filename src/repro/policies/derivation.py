"""Offline derivation of the adaptive policy's threshold table.

The derivation captures the paper's reasoning about when parallelism
pays off:

* with ``n`` queries in the system, each query's fair share of the ISN
  is ``n_cores / n`` cores — requesting more than the share steals
  capacity from concurrent queries and inflates queueing delay;
* within that share, pick the degree with the best measured speedup
  (speedup curves are sublinear and can plateau, so "largest allowed"
  is not always best);
* parallelism below a minimum gain (default 5%) is not worth its
  overhead: fall back to sequential execution.

Because the share shrinks monotonically with load, the resulting table
is monotone (degree non-increasing in load) by construction, which the
:class:`~repro.policies.adaptive.ThresholdTable` validates again.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

from repro.errors import PolicyError
from repro.policies.adaptive import ThresholdTable
from repro.util.validation import require_int_in_range, require_positive


class SpeedupCurve(Protocol):
    """Anything exposing a mean speedup per degree (measured profile or
    parametric model)."""

    def speedup(self, degree: int) -> float:  # pragma: no cover - protocol
        ...


def _best_degree(
    curve: SpeedupCurve, allowed: Sequence[int], min_gain: float
) -> int:
    """Degree with the best speedup among ``allowed``; ties favor the
    smaller degree; parallelism below ``min_gain`` falls back to 1."""
    best_p, best_s = 1, 1.0
    for p in allowed:
        if p == 1:
            continue
        s = curve.speedup(p)
        if s > best_s + 1e-12:
            best_p, best_s = p, s
    if best_s < min_gain:
        return 1
    return best_p


def scale_table(table: ThresholdTable, factor: float) -> ThresholdTable:
    """Scale the load limits of ``table`` by ``factor``.

    ``factor > 1`` keeps parallelism alive at higher loads; ``< 1`` backs
    off earlier. The analytic fair-share derivation below is
    conservative — it sizes degrees as if the instantaneous queue were
    permanent, while in a stochastic queue the load fluctuates below its
    mean — so the deployed table is typically the derived one stretched
    by an empirically tuned factor (the paper tunes its thresholds
    against the live system; E17 sweeps this factor).

    Scaled limits are rounded and deduplicated while preserving the
    degree ordering, so the result is always a valid monotone table.
    """
    require_positive(factor, "factor")
    entries: List[Tuple[int, int]] = []
    last_limit = 0
    for limit, degree in table.entries:
        scaled = max(last_limit + 1, int(round(limit * factor)))
        entries.append((scaled, degree))
        last_limit = scaled
    return ThresholdTable.from_pairs(entries)


def derive_threshold_table(
    curve: SpeedupCurve,
    n_cores: int,
    degrees: Optional[Sequence[int]] = None,
    min_gain: float = 1.05,
) -> ThresholdTable:
    """Derive the adaptive policy's table from a speedup curve.

    Parameters
    ----------
    curve:
        A measured :class:`~repro.profiles.speedup.SpeedupProfile` or a
        :class:`~repro.profiles.speedup.ParametricSpeedup`.
    n_cores:
        Core count of the ISN.
    degrees:
        Candidate degrees the runtime supports. Defaults to the curve's
        measured degrees when available.
    min_gain:
        Minimum mean speedup for parallel execution to be worthwhile.
    """
    require_int_in_range(n_cores, "n_cores", low=1)
    require_positive(min_gain, "min_gain")
    if degrees is None:
        degrees = getattr(curve, "degrees", None)
        if degrees is None:
            raise PolicyError(
                "degrees must be given explicitly for curves without a "
                "measured degree set"
            )
    candidate_degrees = sorted(set(int(p) for p in degrees))
    if any(p < 1 for p in candidate_degrees):
        raise PolicyError("candidate degrees must be >= 1")
    candidate_degrees = [p for p in candidate_degrees if p <= n_cores]
    if not candidate_degrees:
        raise PolicyError("no candidate degree fits within n_cores")

    # degree(n) for each queries-in-system level n.
    chosen: List[int] = []
    for n in range(1, n_cores + 1):
        share = n_cores // n
        allowed = [p for p in candidate_degrees if p <= max(share, 1)]
        chosen.append(_best_degree(curve, allowed, min_gain))

    # Compress runs of equal degree into (limit, degree) entries,
    # dropping the trailing degree-1 region (it is the table's fallback).
    entries: List[Tuple[int, int]] = []
    run_degree = chosen[0]
    for n in range(2, n_cores + 1):
        if chosen[n - 1] != run_degree:
            if run_degree > 1:
                entries.append((n - 1, run_degree))
            run_degree = chosen[n - 1]
    if run_degree > 1:
        entries.append((n_cores, run_degree))

    if not entries:
        # Parallelism never pays off: a degenerate single-entry table
        # that always selects sequential execution.
        entries = [(1, 1)]
    return ThresholdTable.from_pairs(entries)
