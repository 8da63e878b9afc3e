"""Canonical JSON encoding of configs and sweep params for cache keys.

The content-addressed cache needs a *stable* byte representation of
"everything that determines a point's result": the experiment id, the
full ``MachineConfig`` (an arbitrarily nested tree of frozen
dataclasses), and the point's params dict.  :func:`canonicalize` lowers
that tree to plain JSON types deterministically — dataclasses become
mappings tagged with their qualified type name (so changing a config
*class* invalidates keys just like changing a value), enum keys/values
become their names, and dict ordering is erased by ``sort_keys`` in
:func:`canonical_json`.

Anything the encoder does not recognize raises :class:`RunnerError`
instead of being silently stringified: a lossy key is a wrong key.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any

import numpy as np

from ..errors import RunnerError


#: type -> its dataclass field names, ``None`` for any other type.  A
#: class's fields are fixed when it is created, so entries never go stale.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def canonicalize(value: Any) -> Any:
    """Lower ``value`` to JSON-representable types, deterministically."""
    cls = type(value)
    if cls not in _FIELD_NAMES:
        _FIELD_NAMES[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
    names = _FIELD_NAMES[cls]
    if names is not None:
        lowered: dict[str, Any] = {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}"
        }
        for name in names:
            lowered[name] = canonicalize(getattr(value, name))
        return lowered
    if isinstance(value, Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            lowered_key = key if isinstance(key, str) else canonicalize(key)
            if not isinstance(lowered_key, str):
                raise RunnerError(
                    f"cannot use {type(key).__name__} as a cache-key dict key"
                )
            if lowered_key in out:
                raise RunnerError(
                    f"duplicate canonical dict key {lowered_key!r}"
                )
            out[lowered_key] = canonicalize(item)
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.dtype):
        return f"dtype[{value.str}]"
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    raise RunnerError(
        f"cannot canonicalize {type(value).__name__} for a cache key"
    )


def canonical_json(value: Any) -> str:
    """The canonical (sorted, compact) JSON string for ``value``."""
    return json.dumps(
        canonicalize(value), sort_keys=True, separators=(",", ":")
    )
