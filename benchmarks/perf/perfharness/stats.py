"""Order statistics, the calibration probe, the noise guard, and the
median-of-rounds reduction every end-to-end metric goes through.

Why in-process times are *calibrated*: on the shared 2-core box the same
work takes 1x-2.5x its best time depending on what the neighbours are
doing, and the slow regimes last longer than a whole run, so no
statistic of raw round times repeats better than 10-20 % (interquartile
distance of ten runs over their median). A fixed probe run every
~100 ms *inside* each round, in the same process and on the same core as
the work, tracks that speed (correlation 0.94 with the round's time);
dividing a round's times by ``probe mean / PROBE_REFERENCE_S`` brings
the spread of CPU-bound metrics to 3-6 %. A calibrated millisecond is
therefore "a millisecond on a box whose probe takes exactly
PROBE_REFERENCE_S"; the value as timed is the calibrated one times
``rounds.calibration_ms_mean / 10``, and both are printed.

The slow regimes are per core: the serve-* workloads, whose server is
pinned to another core than the generator, run the probe *on the
server's core* between slices, while no request is outstanding (a probe
on the generator's own core correlated 0.02-0.2 with a serve-saturate
round's time and doubled every spread; on the server's core 0.69, and
over 70 runs through quiet and slow spells the worst ten-run spread of
throughput fell from 26 % as timed to 14 %, the typical one to 3-5 %).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: The probe time all calibrated metrics are expressed at (the probe
#: took 6-11 ms on the reference box, depending on the hour).
PROBE_REFERENCE_S = 0.010
#: A round whose probe is more than this much slower than the run's
#: best round probe is discarded.
GUARD_RATIO = 1.10
#: The guard never leaves fewer than this many rounds: when too few
#: pass it, the quietest ones are kept instead.
MIN_KEPT_ROUNDS = 3
#: Rounds are replaced while fewer than this many are kept ...
ENOUGH_ROUNDS = 4
#: ... by at most this many run beyond the time budget.
MAX_EXTRA_ROUNDS = 4


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation between
    order statistics."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the driver applies across runs."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


_PROBE_INPUT = np.arange(100_000, dtype=np.float64)
_PROBE_BUFFER = np.empty_like(_PROBE_INPUT)


def calibration_probe() -> float:
    """Seconds taken by a fixed ~8 ms mix of numpy streaming and
    interpreter work. Imports nothing from ``repro``: its speed depends
    on the box, never on the program under test.

    It allocates nothing: 800 kB temporaries are ``mmap``-ed afresh on
    every call in a process whose heap has never grown (glibc raises
    its mmap threshold only after a large ``free``), and the probe then
    spent half its time in page faults — 15-25 ms in the serve-*
    generator against 7-9 ms in the engine-* processes on the same box,
    tracking the hypervisor's fault cost rather than CPU speed.
    """
    started = time.perf_counter()
    buffer = _PROBE_BUFFER
    total = 0.0
    for step in range(20):
        np.multiply(_PROBE_INPUT, 1.0001, out=buffer)
        np.add(buffer, step, out=buffer)
        np.sqrt(buffer, out=buffer)
        total += float(buffer.sum())
    acc = 0
    for i in range(75_000):
        acc += i * i % 7
    return time.perf_counter() - started


class Prober:
    """Collects probe samples; a workload calls :meth:`sample` between
    the slices of a round and :meth:`take` when the round ends."""

    def __init__(self, probe: Callable[[], float] = calibration_probe) -> None:
        self._probe = probe
        self._samples: List[float] = []
        self.best_s = float("inf")
        self.all_samples = 0
        self.total_s = 0.0

    def sample(self) -> None:
        value = self._probe()
        self._samples.append(value)
        self.best_s = min(self.best_s, value)
        self.all_samples += 1
        self.total_s += value

    def take(self) -> float:
        """Mean of the samples since the last call (and forget them)."""
        if not self._samples:
            raise ValueError("no probe sample taken in this round")
        mean = sum(self._samples) / len(self._samples)
        self._samples = []
        return mean

    @property
    def mean_s(self) -> float:
        return self.total_s / self.all_samples if self.all_samples else float("nan")


@dataclass
class RoundSample:
    """What one measured round observed, in raw (uncalibrated) units."""

    ops: int  # operations attempted
    failed: int  # of those: failed, refused, timed out, lost or wrong
    wall_s: float  # wall time spent on the operations (probes excluded)
    cpu_s: float  # user+sys CPU of the system under test over the round
    latencies_ms: Sequence[float]  # one per completed operation
    probe_s: float  # mean calibration probe inside the round
    digest: str = ""  # sha256 of the round's outputs ("" = not digested)
    valid: bool = True  # False: the generator, not the system, was late
    #: Open loop: throughput and latency are set by the arrival schedule
    #: and by timers, not by CPU speed, so they are reported as timed
    #: (calibrating them tripled their spread); CPU per op is calibrated.
    paced: bool = False
    #: False: the noise guard leaves the round alone (serve-*: their
    #: short rounds hold six probes, whose mean wanders more than the
    #: guard's 10 %; it threw out 8-14 of 13-17 rounds).
    guarded: bool = True
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def factor(self) -> float:
        """How slow the box ran during the round, relative to the
        reference probe time (> 1 = slower)."""
        return self.probe_s / PROBE_REFERENCE_S

    def metrics(self, calibrated: bool = True) -> Dict[str, float]:
        """The round's end-to-end values, calibrated (or as timed)."""
        done = self.ops - self.failed
        factor = self.factor if calibrated else 1.0
        wall_factor = 1.0 if self.paced else factor
        return {
            "throughput_qps": done / (self.wall_s / wall_factor),
            "latency_p50_ms": percentile(self.latencies_ms, 50.0) / wall_factor,
            "latency_p99_ms": percentile(self.latencies_ms, 99.0) / wall_factor,
            "cpu_ms_per_op": self.cpu_s * 1e3 / max(done, 1) / factor,
        }


def guard_keep(round_probes: Sequence[float]) -> List[bool]:
    """Noise guard: which rounds to keep, given each round's probe.

    A round is kept when its probe is within :data:`GUARD_RATIO` of the
    best round probe of the run; if fewer than
    :data:`MIN_KEPT_ROUNDS` pass, the quietest that many are kept.
    """
    if not round_probes:
        return []
    limit = GUARD_RATIO * min(round_probes)
    keep = [probe <= limit for probe in round_probes]
    if sum(keep) < MIN_KEPT_ROUNDS:
        quietest = sorted(range(len(round_probes)), key=lambda i: round_probes[i])
        keep = [False] * len(round_probes)
        for index in quietest[:MIN_KEPT_ROUNDS]:
            keep[index] = True
    return keep


def measure_rounds(
    run_round: Callable[[], RoundSample],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[RoundSample], List[bool]]:
    """Run rounds for ``seconds``, then apply the noise guard.

    Rounds repeat until the time budget is spent. Invalid rounds (late
    generator) never count. While the guard then keeps fewer than
    :data:`ENOUGH_ROUNDS`, further rounds replace the discarded ones:
    at most :data:`MAX_EXTRA_ROUNDS`, and none once half the budget
    again has gone. Returns every round run and the keep mask.
    """
    rounds: List[RoundSample] = []
    started = clock()

    def keep_mask() -> List[bool]:
        mask = [sample.valid and not sample.guarded for sample in rounds]
        guarded = [i for i, s in enumerate(rounds) if s.valid and s.guarded]
        for i, flag in zip(guarded, guard_keep([rounds[i].probe_s for i in guarded])):
            mask[i] = flag
        return mask

    while clock() - started < seconds:
        rounds.append(run_round())
    extra = 0
    while (
        sum(keep_mask()) < ENOUGH_ROUNDS
        and extra < MAX_EXTRA_ROUNDS
        and clock() - started < 1.5 * seconds
    ):
        rounds.append(run_round())
        extra += 1
    return rounds, keep_mask()


#: How a run's value is drawn from its rounds' values: the median,
#: except for the tail. A single stall of the shared box (they come
#: every ~8 s and last 25-90 ms) moves the p99 of the round it falls in,
#: and stalls only ever add, so the tail takes the best round; over ten
#: runs that cut its spread from 19-35 % to 5-16 %. A change that slows
#: the tail of every round still shows.
ROUND_REDUCERS: Dict[str, Callable[[Sequence[float]], float]] = {
    "latency_p99_ms": min,
}


def reduce_rounds(
    rounds: Sequence[RoundSample], keep: Sequence[bool], calibrated: bool = True
) -> Dict[str, Dict[str, float]]:
    """Each per-round metric over the kept rounds: its value (median, or
    see :data:`ROUND_REDUCERS`), the quartiles over those rounds and
    the sample count."""
    kept = [
        sample.metrics(calibrated) for sample, flag in zip(rounds, keep) if flag
    ]
    if not kept:
        raise ValueError("no round survived")
    reduced: Dict[str, Dict[str, float]] = {}
    for name in kept[0]:
        values = [row[name] for row in kept]
        q1, median, q3 = quartiles(values)
        value = ROUND_REDUCERS.get(name, lambda _: median)(values)
        reduced[name] = {"value": value, "q1": q1, "q3": q3, "n": len(kept)}
    return reduced


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"value": median, "q1", "q3", "n"}`` of a plain sample."""
    q1, median, q3 = quartiles(list(values))
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(
    base: Dict[str, float],
    other: Dict[str, float],
    better: str,
    bound: float,
    absolute: bool = False,
) -> Tuple[float, str]:
    """Compare ``other`` against ``base`` for one metric.

    Returns ``(ratio other/base, "ok" | "worse" | "unresolved")``.
    ``worse``: the median moved the wrong way by more than ``bound``
    (a share of ``base``'s median, or an absolute amount).
    ``unresolved``: not worse, but either side's interquartile spread is
    wider than the bound, so "no change" cannot be claimed either.
    """
    a, b = base["value"], other["value"]
    ratio = b / a if a else float("inf") if b else 1.0
    change = (b - a) if better == "lower" else (a - b)
    allowed = bound if absolute else bound * abs(a)
    if change > allowed:
        return ratio, "worse"
    for side in (base, other):
        spread = side["q3"] - side["q1"]
        limit = bound if absolute else bound * abs(side["value"])
        if spread > limit:
            return ratio, "unresolved"
    return ratio, "ok"
