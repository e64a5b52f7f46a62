"""Tests for the simulator core and arrival processes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import EventHeapContract
from repro.errors import ConfigurationError, SimulationError
from repro.sim.arrivals import (
    MMPP2Arrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.sim.engine import Simulator


class TestSimulator(EventHeapContract):
    make = Simulator

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(2))
        sim.run(until_s=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_backwards_horizon_rejected(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run(until_s=3.0)
        with pytest.raises(SimulationError):
            sim.run(until_s=1.0)

    def test_processed_count(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    # Horizon-boundary semantics (see Simulator.run docstring) --------

    def test_same_instant_chain_at_horizon_fires(self):
        # An event at the horizon that schedules another event at the
        # same instant must see that event fire in the same run() call.
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: sim.schedule_at(5.0, lambda: fired.append("chained")))
        sim.run(until_s=5.0)
        assert fired == ["chained"]

    def test_run_until_now_is_noop(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run(until_s=3.0)
        processed = sim.processed_events
        sim.run(until_s=3.0)  # same-horizon re-run: legal, does nothing
        assert sim.processed_events == processed

    def test_schedule_at_horizon_after_run_is_legal(self):
        # run() leaves `now` exactly on the horizon, so scheduling at
        # that instant afterwards must be accepted, not "in the past".
        sim = Simulator()
        fired = []
        sim.run(until_s=2.0)
        sim.schedule_at(2.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["late"]

    def test_non_finite_horizon_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            sim = Simulator()
            sim.schedule_at(1.0, lambda: None)
            with pytest.raises(SimulationError, match="finite"):
                sim.run(until_s=bad)
            # The failed run must not have touched the clock or queue.
            assert sim.now == 0.0
            assert sim.pending_events == 1

    def test_non_finite_event_time_rejected(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="finite"):
                sim.schedule_at(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)


class TestOneHeapOneDrain:
    """Two hostings, not three: under ``sim`` + ``runtime`` there is
    one event heap, one horizon-then-bounded-drain loop, and nobody
    builds a ``LoadPointConfig`` just to get a summary out."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    MODULES = sorted((SRC / "sim").glob("*.py")) + sorted((SRC / "runtime").glob("*.py"))

    @classmethod
    def _sites(cls, matches):
        """``{"pkg/file.py": [enclosing function or "<module>", ...]}``
        of the AST nodes ``matches`` accepts."""
        sites = {}
        for path in cls.MODULES:
            tree = ast.parse(path.read_text())
            owner = {
                id(node): function.name
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
            }
            for node in ast.walk(tree):
                if matches(node):
                    key = f"{path.parent.name}/{path.name}"
                    sites.setdefault(key, []).append(owner.get(id(node), "<module>"))
        return sites

    @staticmethod
    def imports_heapq(node):
        # ``ast.Global`` and ``ast.Nonlocal`` have ``names`` too, as strings.
        return (
            isinstance(node, ast.Import)
            and any(alias.name == "heapq" for alias in node.names)
        ) or (isinstance(node, ast.ImportFrom) and node.module == "heapq")

    def test_only_the_simulator_owns_a_heap(self):
        assert self._sites(self.imports_heapq) == {"sim/engine.py": ["<module>"]}

    def test_heap_rule_reads_names_only_from_imports(self):
        tree = ast.parse(
            "import heapq\n"
            "counter = 0\n"
            "def outer():\n"
            "    global counter\n"
            "    total = 0\n"
            "    def inner():\n"
            "        nonlocal total\n"
        )
        found = [node for node in ast.walk(tree) if self.imports_heapq(node)]
        assert [type(node) for node in found] == [ast.Import]

    def test_one_bounded_drain_loop(self):
        def steps(node):
            return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "step"

        assert self._sites(steps) == {
            "sim/engine.py": ["run", "run"],
            "runtime/clock.py": ["drain"],
            "sim/experiment.py": ["run_to_horizon"],
        }
        # ... and the ten-horizons bound is stated once, by name.
        for path in self.MODULES:
            assert "* 10.0" not in path.read_text(), path.name
        assert self._sites(
            lambda node: isinstance(node, ast.Name) and node.id == "drain_limit"
        ) == {"sim/experiment.py": ["run_to_horizon"] * 2}

    def test_nobody_builds_a_config_to_summarise(self):
        def builds_config(node):
            return isinstance(node, ast.Call) and (
                getattr(node.func, "id", getattr(node.func, "attr", None))
                == "LoadPointConfig"
            )

        assert self._sites(builds_config) == {}


class TestPoissonArrivals:
    def test_mean_rate(self, rng):
        process = PoissonArrivals(rate=100.0, rng=rng)
        gaps = [process.next_interarrival() for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.01, rel=0.05)

    def test_gaps_positive(self, rng):
        process = PoissonArrivals(rate=10.0, rng=rng)
        assert all(process.next_interarrival() > 0 for _ in range(100))

    def test_bad_rate_rejected(self, rng):
        with pytest.raises(Exception):
            PoissonArrivals(rate=0.0, rng=rng)


class TestMMPP2:
    def test_mean_rate_property(self, rng):
        process = MMPP2Arrivals(10.0, 100.0, 0.9, 0.1, rng)
        expected = (10.0 * 0.9 + 100.0 * 0.1) / 1.0
        assert process.mean_rate == pytest.approx(expected)

    def test_with_mean_rate_hits_target(self, rng):
        process = MMPP2Arrivals.with_mean_rate(
            mean_rate=200.0, burst_ratio=5.0, mean_dwell_s=0.05, rng=rng
        )
        assert process.mean_rate == pytest.approx(200.0, rel=1e-9)
        gaps = [process.next_interarrival() for _ in range(60_000)]
        assert 1.0 / np.mean(gaps) == pytest.approx(200.0, rel=0.1)

    def test_burstier_than_poisson(self, rng):
        """Index of dispersion of counts should exceed 1 for MMPP."""
        process = MMPP2Arrivals.with_mean_rate(
            mean_rate=1000.0, burst_ratio=8.0, mean_dwell_s=0.1,
            rng=np.random.default_rng(0),
        )
        times = np.cumsum([process.next_interarrival() for _ in range(50_000)])
        window = 0.1
        counts = np.bincount((times / window).astype(int))
        dispersion = counts.var() / counts.mean()
        assert dispersion > 1.5

    def test_degenerate_ratio_one_is_poisson_like(self, rng):
        process = MMPP2Arrivals.with_mean_rate(
            mean_rate=500.0, burst_ratio=1.0, mean_dwell_s=0.05, rng=rng
        )
        assert process.rate_low == pytest.approx(process.rate_high)

    def test_invalid_params_rejected(self, rng):
        with pytest.raises(Exception):
            MMPP2Arrivals(100.0, 10.0, 1.0, 1.0, rng)  # high < low
        with pytest.raises(Exception):
            MMPP2Arrivals.with_mean_rate(100.0, 0.5, 0.1, rng)  # ratio < 1


class TestTraceArrivals:
    def test_replays_gaps(self):
        trace = TraceArrivals([0.5, 1.0, 3.0])
        assert trace.next_interarrival() == 0.5
        assert trace.next_interarrival() == 0.5
        assert trace.next_interarrival() == 2.0
        assert trace.next_interarrival() == float("inf")

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([2.0, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([-1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # NaN slips past both the order and the sign check (every
        # comparison with it is False); the runners then disagreed on
        # what a NaN arrival means instead of refusing it.
        with pytest.raises(ConfigurationError, match="finite"):
            TraceArrivals([0.1, bad, 0.3, 0.4])


class TestMMPP2RegimeBoundary:
    """Regression: a candidate landing exactly on the dwell boundary
    belongs to the *new* regime (half-open [switch, next_switch)
    windows) and must be re-sampled at the new rate, not accepted at
    the old one."""

    class _ScriptedRng:
        """Stands in for a Generator; replays scripted exponentials and
        records the scale of every draw."""

        def __init__(self, values):
            self._values = list(values)
            self.scales = []

        def exponential(self, scale):
            self.scales.append(scale)
            return self._values.pop(0)

    def test_boundary_candidate_resampled_in_new_regime(self):
        # Draw order: initial low dwell (5.0), low-rate candidate
        # exactly on the boundary (5.0), high dwell after the switch
        # (10.0), high-rate candidate (0.25).
        rng = self._ScriptedRng([5.0, 5.0, 10.0, 0.25])
        process = MMPP2Arrivals(
            rate_low=2.0, rate_high=8.0,
            mean_dwell_low_s=1.0, mean_dwell_high_s=3.0,
            rng=rng,
        )
        gap = process.next_interarrival()
        # The boundary candidate was NOT accepted at the old rate (which
        # would have returned exactly 5.0): the process switched state
        # and re-sampled, so the arrival lands 0.25 into the high
        # regime.
        assert gap == 5.25
        assert process._in_high
        # The re-sample after the switch was drawn at the HIGH rate and
        # the new dwell at the high-state mean.
        assert rng.scales == [1.0, 1.0 / 2.0, 3.0, 1.0 / 8.0]
        # The accepted gap was debited from the new regime's dwell.
        assert process._dwell_remaining_s == pytest.approx(9.75)
