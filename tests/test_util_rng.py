"""Tests for repro.util.rng: deterministic stream derivation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.rng import RngFactory, derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(42, "arrivals") != derive_seed(42, "service")

    def test_root_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_label_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must map to different seeds.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_integer_labels_allowed(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, "1", "2")

    def test_result_fits_in_64_bits(self):
        assert 0 <= derive_seed(7, "x") < 2**64


class TestMakeRng:
    def test_int_seed_reproducible(self):
        a, b = make_rng(5), make_rng(5)
        assert a.random() == b.random()

    def test_string_seed_reproducible(self):
        a, b = make_rng("hello"), make_rng("hello")
        assert a.random() == b.random()

    def test_different_string_seeds_differ(self):
        assert make_rng("a").random() != make_rng("b").random()

    def test_none_rejected_loudly(self):
        # An unseeded generator would make an experiment silently
        # nondeterministic; make_rng must refuse rather than oblige.
        with pytest.raises(ConfigurationError, match="explicit seed"):
            make_rng(None)

    def test_bad_seed_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_rng(3.14)


class TestRngFactory:
    def test_streams_are_independent(self):
        factory = RngFactory(9)
        a = factory.stream("one").random(4)
        b = factory.stream("two").random(4)
        assert not np.allclose(a, b)

    def test_same_name_same_stream(self):
        factory = RngFactory(9)
        assert np.allclose(
            factory.stream("x").random(4),
            factory.stream("x").random(4),
        )

    def test_child_factory_differs_from_parent(self):
        factory = RngFactory(9)
        child = factory.child("sub")
        assert child.root_seed != factory.root_seed
        assert child.stream("x").random() != factory.stream("x").random()

    def test_empty_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            RngFactory(0).stream()

    def test_non_int_root_rejected(self):
        with pytest.raises(ConfigurationError):
            RngFactory("nope")

    def test_seed_for_matches_derive_seed(self):
        factory = RngFactory(3)
        assert factory.seed_for("a") == derive_seed(3, "a")
