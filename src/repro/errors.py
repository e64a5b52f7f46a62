"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at an API boundary. Subclasses are
grouped by subsystem: configuration, corpus/index construction, query
execution, simulation, and analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class CorpusError(ReproError):
    """Corpus construction or access failed (empty corpus, bad doc id...)."""


class IndexError_(ReproError):
    """Index construction or lookup failed.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError`` while still reading naturally at call sites
    (``except IndexError_``).
    """


class QueryError(ReproError):
    """A query could not be parsed or executed."""


class ExecutionError(ReproError):
    """Query execution failed (engine invariant violated, bad degree...)."""


class PolicyError(ReproError):
    """A parallelism policy was misconfigured or returned an invalid degree."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency."""


class FaultInjectionError(SimulationError):
    """A fault schedule was malformed (overlapping windows, bad bounds...)."""


class AnalysisError(ReproError):
    """A statistical analysis routine received unusable input."""


class ProfileError(ReproError):
    """Speedup/service-time profile construction or lookup failed."""
