"""Dataclass configuration helpers: validation, dict/JSON round-trips."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, TypeVar

from repro.utils.errors import ConfigError

T = TypeVar("T")


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value > 0``."""
    require(value > 0, f"{name} must be positive, got {value}")


def require_non_negative(value: float, name: str) -> None:
    """Raise unless ``value >= 0``."""
    require(value >= 0, f"{name} must be non-negative, got {value}")


def require_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Raise unless ``lo <= value <= hi``."""
    require(lo <= value <= hi, f"{name} must be in [{lo}, {hi}], got {value}")


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy scalars / paths to JSON types."""
    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def dump_json(obj: Any, path: str | Path) -> None:
    """Write any jsonable-convertible object to ``path`` as pretty JSON."""
    Path(path).write_text(json.dumps(to_jsonable(obj), indent=2, sort_keys=True))


def load_json(path: str | Path) -> Any:
    """Read JSON from ``path``."""
    return json.loads(Path(path).read_text())


def replace_config(config: T, **overrides: Any) -> T:
    """`dataclasses.replace` that rejects unknown field names with a clear error."""
    field_names = {f.name for f in dataclasses.fields(config)}  # type: ignore[arg-type]
    unknown = set(overrides) - field_names
    if unknown:
        raise ConfigError(
            f"unknown field(s) {sorted(unknown)} for {type(config).__name__}; "
            f"valid fields: {sorted(field_names)}"
        )
    return dataclasses.replace(config, **overrides)  # type: ignore[type-var]
