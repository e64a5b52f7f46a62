"""High-level system facade tying the reproduction together.

:class:`AdaptiveSearchSystem` is the main entry point a downstream user
works with: it profiles a workbench, derives the adaptive policy,
constructs any baseline/extension policy by name, and runs load sweeps.
"""

from repro.core.capacity import capacity_at_slo
from repro.core.controller import AdaptiveSearchSystem, SystemConfig

__all__ = [
    "AdaptiveSearchSystem",
    "SystemConfig",
    "capacity_at_slo",
]
