"""Tests for repro.text: Zipf sampler and tokenizer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.text.tokenizer import Tokenizer
from repro.text.zipf import ZipfMandelbrot


class TestZipfMandelbrot:
    def test_pmf_sums_to_one(self):
        z = ZipfMandelbrot(1000, 1.1, 2.0)
        assert np.isclose(z.pmf_array().sum(), 1.0)

    def test_pmf_is_decreasing_in_rank(self):
        z = ZipfMandelbrot(500)
        pmf = z.pmf_array()
        assert np.all(np.diff(pmf) <= 0)

    def test_samples_in_support(self, rng):
        z = ZipfMandelbrot(50)
        draws = z.sample(rng, 2000)
        assert draws.min() >= 0 and draws.max() < 50

    def test_scalar_sample(self, rng):
        z = ZipfMandelbrot(50)
        value = z.sample(rng)
        assert isinstance(value, int) and 0 <= value < 50

    def test_empirical_matches_pmf_at_head(self, rng):
        z = ZipfMandelbrot(200, 1.05, 2.0)
        draws = z.sample(rng, 60_000)
        empirical_top = float((draws == 0).mean())
        assert abs(empirical_top - z.pmf(0)) < 0.01

    def test_higher_exponent_is_more_skewed(self):
        flat = ZipfMandelbrot(100, exponent=0.5, shift=0.0)
        steep = ZipfMandelbrot(100, exponent=2.0, shift=0.0)
        assert steep.pmf(0) > flat.pmf(0)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfMandelbrot(0)
        with pytest.raises(ConfigurationError):
            ZipfMandelbrot(10, exponent=0.0)
        with pytest.raises(ConfigurationError):
            ZipfMandelbrot(10, shift=-1.0)

    def test_pmf_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfMandelbrot(10).pmf(10)


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert Tokenizer(stopwords=frozenset()).tokenize("Hello WORLD") == [
            "hello", "world"]

    def test_strips_punctuation(self):
        assert Tokenizer(stopwords=frozenset()).tokenize("web-search, now!") == [
            "web", "search", "now"]

    def test_drops_stopwords(self):
        assert Tokenizer().tokenize("the cat and the hat") == ["cat", "hat"]

    def test_min_token_length(self):
        assert Tokenizer(stopwords=frozenset(), min_token_length=3).tokenize(
            "go for it now") == ["for", "now"]
