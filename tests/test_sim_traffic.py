"""Regime-based traffic generator: validation, windows, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.traffic import (
    BACKGROUND,
    FLASH_CROWD,
    QUERY_OF_DEATH,
    SLOW_QUERY_FLOOD,
    Burst,
    ClassAwareQuerySampler,
    DiurnalProfile,
    RegimeTraffic,
    TrafficConfig,
)
from repro.util.rng import RngFactory


def _collect(traffic, horizon_s):
    """Drain a RegimeTraffic into (absolute time, class) pairs."""
    out = []
    now = 0.0
    while True:
        gap = traffic.next_interarrival()
        if not np.isfinite(gap):
            break
        now += gap
        if now >= horizon_s:
            break
        out.append((now, traffic.last_class))
    return out


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestValidation:
    def test_negative_base_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="base_rate"):
            DiurnalProfile(base_rate=-1.0)

    def test_amplitude_bounds(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            DiurnalProfile(base_rate=10.0, amplitude=1.0)

    def test_zero_length_burst_rejected(self):
        with pytest.raises(ConfigurationError, match="duration_s"):
            Burst(kind=FLASH_CROWD, start_s=1.0, duration_s=0.0, peak_rate=5.0)

    def test_negative_burst_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="peak_rate"):
            Burst(kind=FLASH_CROWD, start_s=1.0, duration_s=1.0, peak_rate=-2.0)

    def test_unknown_burst_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Burst(kind="ddos", start_s=1.0, duration_s=1.0, peak_rate=5.0)

    def test_overlapping_bursts_of_same_kind_rejected(self):
        a = Burst(kind=FLASH_CROWD, start_s=1.0, duration_s=2.0, peak_rate=5.0)
        b = Burst(kind=FLASH_CROWD, start_s=2.0, duration_s=2.0, peak_rate=5.0)
        with pytest.raises(ConfigurationError, match="overlap"):
            TrafficConfig(
                background=DiurnalProfile(base_rate=10.0), bursts=(a, b)
            )

    def test_adjacent_bursts_allowed(self):
        # Half-open windows: [1, 3) and [3, 5) do not overlap.
        a = Burst(kind=FLASH_CROWD, start_s=1.0, duration_s=2.0, peak_rate=5.0)
        b = Burst(kind=FLASH_CROWD, start_s=3.0, duration_s=2.0, peak_rate=5.0)
        config = TrafficConfig(
            background=DiurnalProfile(base_rate=10.0), bursts=(a, b)
        )
        assert len(config.bursts) == 2


# ----------------------------------------------------------------------
# Rate envelopes
# ----------------------------------------------------------------------


class TestRates:
    def test_diurnal_rate_at_mean_and_peak(self):
        profile = DiurnalProfile(base_rate=100.0, amplitude=0.5, period_s=10.0)
        assert profile.rate_at(0.0) == pytest.approx(100.0)
        assert profile.rate_at(2.5) == pytest.approx(150.0)
        assert profile.max_rate == pytest.approx(150.0)

    def test_square_burst_window_is_half_open(self):
        burst = Burst(
            kind=FLASH_CROWD, start_s=2.0, duration_s=1.0, peak_rate=40.0
        )
        assert burst.rate_at(2.0) == pytest.approx(40.0)
        assert burst.rate_at(2.999) == pytest.approx(40.0)
        assert burst.rate_at(3.0) == 0.0
        assert burst.rate_at(1.999) == 0.0


# ----------------------------------------------------------------------
# The composed arrival process
# ----------------------------------------------------------------------


class TestRegimeTraffic:
    HORIZON = 20.0

    def _config(self, with_burst=True):
        bursts = (
            (
                Burst(
                    kind=SLOW_QUERY_FLOOD,
                    start_s=5.0,
                    duration_s=4.0,
                    peak_rate=60.0,
                ),
            )
            if with_burst
            else ()
        )
        return TrafficConfig(
            background=DiurnalProfile(
                base_rate=80.0, amplitude=0.2, period_s=self.HORIZON
            ),
            bursts=bursts,
        )

    def test_deterministic_replay(self):
        a = _collect(
            RegimeTraffic(self._config(), RngFactory(7), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        b = _collect(
            RegimeTraffic(self._config(), RngFactory(7), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        assert a == b

    def test_different_seeds_differ(self):
        a = _collect(
            RegimeTraffic(self._config(), RngFactory(7), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        b = _collect(
            RegimeTraffic(self._config(), RngFactory(8), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        assert a != b

    def test_adding_a_burst_never_perturbs_background(self):
        """Per-component named streams: the background arrivals of a
        config with a burst are bit-identical to the same config without
        it — the burst only *adds* its own flow."""
        with_burst = _collect(
            RegimeTraffic(self._config(), RngFactory(7), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        without = _collect(
            RegimeTraffic(
                self._config(with_burst=False), RngFactory(7),
                horizon_s=self.HORIZON,
            ),
            self.HORIZON,
        )
        background_times = [t for t, c in with_burst if c == BACKGROUND]
        assert background_times == [t for t, _ in without]

    def test_burst_arrivals_confined_to_window(self):
        arrivals = _collect(
            RegimeTraffic(self._config(), RngFactory(7), horizon_s=self.HORIZON),
            self.HORIZON,
        )
        flood_times = [t for t, c in arrivals if c == SLOW_QUERY_FLOOD]
        assert flood_times, "burst produced no arrivals"
        assert all(5.0 <= t < 9.0 for t in flood_times)
        classes = {c for _, c in arrivals}
        assert classes == {BACKGROUND, SLOW_QUERY_FLOOD}


# ----------------------------------------------------------------------
# Class-aware query sampling
# ----------------------------------------------------------------------


class TestClassAwareQuerySampler:
    T1 = np.array([0.1, 0.5, 0.2, 0.9, 0.3, 0.4, 0.8, 0.6, 0.7, 1.0])

    def test_death_is_most_expensive_without_predictions(self):
        sampler = ClassAwareQuerySampler(self.T1, RngFactory(0))
        assert sampler.death_index == 9
        assert sampler.sample(QUERY_OF_DEATH) == 9

    def test_flood_draws_from_heavy_set(self):
        t1 = np.concatenate([self.T1, self.T1 / 10, self.T1 / 100])
        sampler = ClassAwareQuerySampler(t1, RngFactory(0))
        heavy = set(int(i) for i in sampler.attack_indices)
        assert heavy == {6, 3, 9}  # top tenth by sequential latency
        draws = {sampler.sample(SLOW_QUERY_FLOOD) for _ in range(50)}
        assert draws <= heavy

    def test_predictions_retarget_attack_at_underprediction(self):
        # Residual t1 - pred: index 3 is perfectly predicted, index 0 is
        # wildly underpredicted despite being cheap in absolute terms.
        pred = self.T1.copy()
        pred[3] = 0.9  # exact
        pred[0] = 0.0  # residual 0.1
        pred[9] = 0.95  # residual 0.05
        pred[6] = 0.1  # residual 0.7 -> the new death query
        sampler = ClassAwareQuerySampler(
            self.T1, RngFactory(0), predicted_latencies=pred
        )
        assert sampler.death_index == 6
        assert 3 not in set(int(i) for i in sampler.attack_indices)

    def test_background_covers_whole_table(self):
        sampler = ClassAwareQuerySampler(self.T1, RngFactory(0))
        draws = {sampler.sample(None) for _ in range(400)}
        assert draws == set(range(10))

    def test_deterministic_for_seed(self):
        a = ClassAwareQuerySampler(self.T1, RngFactory(3))
        b = ClassAwareQuerySampler(self.T1, RngFactory(3))
        classes = [None, SLOW_QUERY_FLOOD, None, QUERY_OF_DEATH, None]
        assert [a.sample(c) for c in classes] == [b.sample(c) for c in classes]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="predicted_latencies"):
            ClassAwareQuerySampler(
                self.T1, RngFactory(0), predicted_latencies=self.T1[:5]
            )

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ClassAwareQuerySampler([], RngFactory(0))
