"""Layer-map loading and module→layer resolution for R014/R017.

The map is declarative TOML (``layers.toml``): layer assignments by
dotted module-name prefix, an allowed-import order, the clock-discipline
configuration and the purity scope. The rules find the map *next to
the linted tree*: for each linted file the nearest ancestor directory
containing ``layers.toml`` or ``tools/reprolint/layers.toml`` wins.
Fixture trees therefore carry
their own miniature maps, and a tree without any map simply disables the
layer-based rules (sound-by-omission, like unresolved calls elsewhere in
reprolint).

Prefix matching is segment-aligned and suffix-tolerant: the prefix
``repro.policies`` matches ``repro.policies.online`` and also
``tmp123.src.repro.policies.online`` (fixture copies under a tmp root),
but never ``repro.policies_extra``. The longest matching prefix (most
segments) assigns the layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on old pythons
    tomllib = None  # type: ignore[assignment]

#: File names probed (in order) in each ancestor directory.
_MAP_LOCATIONS = ("layers.toml", "tools/reprolint/layers.toml")


@dataclass(frozen=True)
class ClockConfig:
    """Clock-discipline knobs for R014."""

    kernel_layers: Tuple[str, ...] = ()
    forbidden_modules: Tuple[str, ...] = ()
    clock_classes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PurityConfig:
    """Purity scope for R017."""

    layers: Tuple[str, ...] = ()


@dataclass
class LayerMap:
    """Parsed layer map: assignments, import order, and rule configs."""

    #: layer name -> module-name prefixes assigned to it
    layers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: layer name -> layers it may import from (itself always allowed)
    imports: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    clock: ClockConfig = field(default_factory=ClockConfig)
    purity: PurityConfig = field(default_factory=PurityConfig)
    #: where the map was loaded from (diagnostics)
    source: Optional[str] = None

    def __post_init__(self) -> None:
        self._patterns: List[Tuple[int, re.Pattern, str]] = []
        for layer, prefixes in self.layers.items():
            for prefix in prefixes:
                pattern = re.compile(
                    r"(?:^|\.)" + re.escape(prefix) + r"(?:$|\.)"
                )
                self._patterns.append((prefix.count(".") + 1, pattern, layer))
        # Longest prefix (most segments) first.
        self._patterns.sort(key=lambda item: -item[0])

    def layer_of(self, module_name: str) -> Optional[str]:
        """The layer assigned to ``module_name``, or None if unassigned."""
        for _, pattern, layer in self._patterns:
            if pattern.search(module_name):
                return layer
        return None

    def allowed_for(self, layer: str) -> frozenset:
        """Layers ``layer`` may import from (including itself)."""
        return frozenset(self.imports.get(layer, ())) | {layer}

    def is_kernel_layer(self, layer: Optional[str]) -> bool:
        return layer is not None and layer in self.clock.kernel_layers

    def is_purity_layer(self, layer: Optional[str]) -> bool:
        return layer is not None and layer in self.purity.layers


def _as_str_tuple(value: object) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        return ()
    return tuple(str(item) for item in value)


def parse_layer_map(text: str, source: Optional[str] = None) -> LayerMap:
    """Parse TOML text into a :class:`LayerMap` (raising on bad TOML)."""
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - minimal fallback for pythons < 3.11
        data = _parse_minimal_toml(text)
    layers = {
        str(name): _as_str_tuple(prefixes)
        for name, prefixes in dict(data.get("layers", {})).items()
    }
    imports = {
        str(name): _as_str_tuple(targets)
        for name, targets in dict(data.get("imports", {})).items()
    }
    clock_raw = dict(data.get("clock", {}))
    purity_raw = dict(data.get("purity", {}))
    return LayerMap(
        layers=layers,
        imports=imports,
        clock=ClockConfig(
            kernel_layers=_as_str_tuple(clock_raw.get("kernel_layers", ())),
            forbidden_modules=_as_str_tuple(
                clock_raw.get("forbidden_modules", ())
            ),
            clock_classes=_as_str_tuple(clock_raw.get("clock_classes", ())),
        ),
        purity=PurityConfig(layers=_as_str_tuple(purity_raw.get("layers", ()))),
        source=source,
    )


def _parse_minimal_toml(text: str) -> Dict[str, Dict[str, object]]:
    """Tiny TOML subset parser: ``[table]`` headers and ``key = [str...]``
    / ``key = "str"`` lines — exactly the shape layers.toml uses."""
    data: Dict[str, Dict[str, object]] = {}
    table: Dict[str, object] = {}
    buffer = ""
    key = ""
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if buffer:
            line = buffer + " " + line
            buffer = ""
        else:
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                table = data.setdefault(line[1:-1].strip(), {})
                continue
            if "=" not in line:
                continue
            key, _, line = line.partition("=")
            key = key.strip()
            line = line.strip()
        if line.startswith("[") and not line.rstrip().endswith("]"):
            buffer = line
            continue
        value: object
        if line.startswith("["):
            value = re.findall(r'"([^"]*)"', line)
        else:
            match = re.match(r'"([^"]*)"', line)
            value = match.group(1) if match else line
        table[key] = value
    return data


#: directory (resolved) -> LayerMap or None, cached per process
_MAP_CACHE: Dict[str, Optional[LayerMap]] = {}


def find_layer_map(path: str) -> Optional[LayerMap]:
    """The layer map governing ``path``: nearest ancestor directory with
    a ``layers.toml`` (directly or under ``tools/reprolint/``)."""
    try:
        start = Path(path).resolve().parent
    except OSError:  # pragma: no cover - unresolvable path
        return None
    probed: List[str] = []
    for directory in [start, *start.parents]:
        cache_key = str(directory)
        if cache_key in _MAP_CACHE:
            result = _MAP_CACHE[cache_key]
            for entry in probed:
                _MAP_CACHE[entry] = result
            return result
        probed.append(cache_key)
        for location in _MAP_LOCATIONS:
            candidate = directory / location
            if candidate.is_file():
                loaded = parse_layer_map(
                    candidate.read_text(encoding="utf-8"), str(candidate)
                )
                for entry in probed:
                    _MAP_CACHE[entry] = loaded
                return loaded
    for entry in probed:
        _MAP_CACHE[entry] = None
    return None
