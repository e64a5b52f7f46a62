"""R011 fixture: typed ``*Config`` field consumption.

A field counts as consumed only when it is read, outside the config
class's own methods, through a receiver of the config's own type (or an
untyped receiver). A field read named ``dead_knob`` on some *other*
class does not count as consumption of ``TunedConfig.dead_knob``, and a
``__post_init__`` validator reading ``self.field`` does not either.
Never imported or executed.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional


@dataclass(frozen=True)
class TunedConfig:
    rate: float = 100.0  # consumed via a typed receiver below
    dead_knob: float = 0.5  # EXPECT:R011
    unread: Optional[int] = None  # EXPECT:R011
    reflective: int = 1  # reprolint: disable=R011 -- consumed via getattr sweep
    fuzzy: int = 2  # consumed via an untyped receiver: not flagged
    validated_only: float = 1.0  # EXPECT:R011
    kind: ClassVar[str] = "tuned"  # ClassVar: never flagged

    def __post_init__(self) -> None:
        # Validation reads both fields; only `rate` has a consumer.
        if self.rate <= 0 or self.validated_only <= 0:
            raise ValueError("rate and validated_only must be positive")


@dataclass
class UnusedEverythingConfig:
    orphan: float = 0.0  # EXPECT:R011


class NotAConfig:
    # Not a dataclass: plain annotations here are not checked.
    ignored: int = 0


class Telemetry:
    """Has a name-colliding ``dead_knob`` attribute of its own."""

    def __init__(self) -> None:
        self.dead_knob = 0.0

    def read(self) -> float:
        # A typed read — but of Telemetry, not TunedConfig, so it does
        # NOT mark TunedConfig.dead_knob as consumed.
        return self.dead_knob


def consume(config: TunedConfig) -> float:
    return config.rate


def untyped_consumer(config) -> int:
    # Unannotated receiver: unresolvable, counts as consumption.
    return config.fuzzy


def reflective_consumer(config: TunedConfig) -> object:
    # getattr with a string constant counts as (untyped) consumption —
    # of 'kind' here; 'reflective' above deliberately has NO consumer
    # and relies on its suppression comment.
    return getattr(config, "kind")
