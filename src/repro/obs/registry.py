"""Metrics registry, the periodic-tick helper, and the run observer.

:class:`MetricsRegistry` holds named counters, gauges, and histograms.
:func:`every` runs a callback at a fixed interval on the driving
scheduler until a horizon; it is the one periodic loop of a run, shared
by the observer here, the online degree controller and the anomaly
guard. :class:`RunObserver` bundles a tracer with a registry, wires the
standard per-run instruments (queue depth, busy cores, cumulative
arrival/completion/shed counts, granted-degree mix) onto a server model,
and samples them into a timeline row per tick.

Observer ticks never mutate simulation state — they only read it — so a
traced run produces results bit-identical to an untraced one (pinned by
the determinism regression tests).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.spans import RecordingTracer, Tracer
from repro.util.validation import require_positive


class Counter:
    """Monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self) -> None:
        self.value += 1


class Gauge:
    """Point-in-time reading of a callable (sampled at ticks)."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()


class Histogram:
    """Fixed-bucket histogram with running sum / min / max.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches the rest.
    """

    __slots__ = ("name", "bounds", "counts", "total", "n", "min", "max")

    def __init__(self, name: str, bounds: Tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs sorted, non-empty bucket bounds"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.n = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        index = 0
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            index = len(self.bounds)
        self.counts[index] += 1
        self.total += value
        self.n += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def summary(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "mean": self.total / self.n if self.n else float("nan"),
            "min": self.min if self.n else float("nan"),
            "max": self.max if self.n else float("nan"),
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.counts)},
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Named instruments, registered once and sampled together."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        if name in self._gauges:
            raise ConfigurationError(f"gauge {name!r} already registered")
        self._check_fresh(name)
        instrument = self._gauges[name] = Gauge(name, fn)
        return instrument

    def histogram(self, name: str, bounds: Tuple[float, ...]) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ConfigurationError(
                f"metric name {name!r} already used by another instrument type"
            )

    def sample(self) -> Dict[str, float]:
        """One timeline row: every gauge read, every counter's value."""
        row: Dict[str, float] = {}
        for name, gauge in self._gauges.items():
            row[name] = gauge.read()
        for name, counter in self._counters.items():
            row[name] = counter.value
        return row

    def snapshot(self) -> Dict[str, Any]:
        """Full end-of-run state, including histogram summaries."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.read() for n, g in self._gauges.items()},
            "histograms": {n: h.summary() for n, h in self._histograms.items()},
        }


def every(scheduler: Any, first_s: float, interval_s: float, until_s: float,
          tick: Callable[[float], None]) -> None:
    """Call ``tick(now_s)`` ``first_s`` from now, then every ``interval_s``
    while ``now_s + interval_s <= until_s``. Ticks due at one instant
    fire in the order they were scheduled. ``scheduler`` is any
    ``SchedulerProtocol``, typed ``Any`` because ``obs`` may not import
    the kernel."""
    require_positive(interval_s, "interval_s")

    def fire() -> None:
        now_s = scheduler.now
        tick(now_s)
        if now_s + interval_s <= until_s:
            scheduler.schedule(interval_s, fire)

    scheduler.schedule(first_s, fire)


#: Timeline samples per run.
SAMPLES_PER_RUN = 100


class RunObserver:
    """Per-run observability bundle: tracer + registry + timeline.

    Pass one to :func:`repro.sim.experiment.run_load_point` (or set
    ``AdaptiveSearchSystem.tracer``, which builds one per point). The
    observer registers the standard node gauges, samples them into
    :attr:`rows` on a periodic tick, and hands the finished timeline to
    the tracer.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer: Tracer = tracer if tracer is not None else RecordingTracer()
        self.registry = MetricsRegistry()
        self.rows: List[Dict[str, Any]] = []
        self._meta: Dict[str, Any] = {}
        self._read_window: Optional[Callable[[], Any]] = None

    def on_run_start(self, **meta: Any) -> None:
        self._meta = dict(meta)
        self.tracer.on_run_start(self._meta)

    def attach(self, simulator: Any, server: Any, collector: Any, horizon_s: float) -> None:
        """Wire the standard node instruments and start the ticks (typed
        ``Any``: ``obs`` may not import the kernel, sim or runtime)."""
        registry = self.registry
        registry.gauge("queue_depth", lambda: server.queue_length)
        registry.gauge("busy_cores", lambda: server.n_cores - server.free_cores)
        registry.gauge("running", lambda: server.n_running)
        registry.gauge("arrivals", lambda: collector.n_arrivals)
        registry.gauge("completions", lambda: collector.n_completions)
        registry.gauge("shed", lambda: collector.n_shed)
        self._read_window = collector.window_reader()
        every(simulator, 0.0, horizon_s / SAMPLES_PER_RUN, horizon_s, self._sample)

    def _sample(self, now_s: float) -> None:
        self._consume_records()
        self.rows.append({"t_s": now_s, **self.registry.sample()})

    def _consume_records(self) -> None:
        """Fold completion records seen since the last tick into the
        granted-degree histogram (read-only; the collector owns them)."""
        histogram = self.registry.histogram(
            "granted_degree", bounds=(1, 2, 3, 4, 6, 8, 12, 16)
        )
        for degree in self._read_window().degrees.tolist():
            histogram.observe(degree)

    def finish(self) -> None:
        """Flush: one final record sweep, then emit the timeline."""
        if self._read_window is not None:
            self._consume_records()
        self.tracer.on_timeline(self._meta, self.rows)
