"""Deterministic random-number-stream management.

Every stochastic component in the library (corpus generation, query
sampling, arrival processes, service-time draws) takes an explicit
``numpy.random.Generator``. This module provides the plumbing to derive
independent, reproducible streams from a single experiment seed, so that
changing one component's consumption of randomness never perturbs another
component's stream — a requirement for comparable A/B policy runs.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

from repro.errors import ConfigurationError

SeedLike = Union[int, str, None]


def derive_seed(root: int, *labels: Union[str, int]) -> int:
    """Derive a child seed from ``root`` and a label path.

    Uses SHA-256 over the root and labels so that child streams are
    statistically independent and stable across runs and platforms.

    >>> derive_seed(42, "arrivals") == derive_seed(42, "arrivals")
    True
    >>> derive_seed(42, "arrivals") != derive_seed(42, "service")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Create a ``numpy.random.Generator`` from an int or string seed.

    Strings are hashed (stable across processes, unlike ``hash()``).
    ``None`` is rejected loudly: an OS-entropy generator would make the
    experiment silently nondeterministic, defeating replayability — the
    invariant every A/B comparison in this repository rests on. Derive
    per-component seeds with :func:`derive_seed` / :class:`RngFactory`
    instead of omitting them.
    """
    if seed is None:
        raise ConfigurationError(
            "make_rng requires an explicit seed (int or str); an unseeded "
            "generator would make the run nondeterministic. Derive "
            "per-component seeds with derive_seed()/RngFactory."
        )
    if isinstance(seed, str):
        seed = derive_seed(0, seed)
    if not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(f"seed must be int, str, or None, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


class RngFactory:
    """Factory handing out named, independent RNG streams under one root seed.

    >>> factory = RngFactory(7)
    >>> a = factory.stream("arrivals")
    >>> b = factory.stream("service")
    >>> a is not b
    True

    Requesting the same name twice returns a *fresh* generator seeded
    identically, which makes replaying a single component possible.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise ConfigurationError(
                f"root_seed must be an integer, got {type(root_seed)!r}"
            )
        self._root = int(root_seed)

    @property
    def root_seed(self) -> int:
        return self._root

    def seed_for(self, *labels: Union[str, int]) -> int:
        """Return the derived integer seed for a label path."""
        return derive_seed(self._root, *labels)

    def stream(self, *labels: Union[str, int]) -> np.random.Generator:
        """Return a fresh generator for the given label path."""
        if not labels:
            raise ConfigurationError("stream() requires at least one label")
        return np.random.default_rng(self.seed_for(*labels))

    def child(self, *labels: Union[str, int]) -> "RngFactory":
        """Return a sub-factory rooted at a derived seed."""
        return RngFactory(self.seed_for(*labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self._root})"
