"""JSON serialization helpers for experiment configs and results.

Dataclasses, numpy scalars/arrays, and nested containers all serialize
through :func:`to_jsonable`; :func:`dump_json` / :func:`load_json` wrap
file IO. Results written by the harness are plain JSON so they can be
inspected or re-plotted without this library.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.errors import ConfigurationError


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Path):
        return str(obj)
    raise ConfigurationError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj: Any, path: Union[str, Path]) -> Path:
    """Serialize ``obj`` to ``path`` as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(obj), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON from ``path``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize ``obj`` to a JSON string."""
    return json.dumps(to_jsonable(obj), indent=indent, sort_keys=True)
