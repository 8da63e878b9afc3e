"""Unit constants and conversion helpers.

The library uses SI base units everywhere: **bytes** for data sizes,
**seconds** for time, **bytes/second** for bandwidth, and **hertz** for
clock frequencies.  DRAM-marketing units (KiB vs KB) are a classic source
of silent 2.4% errors, so all conversions go through this module.

It also holds the two helpers every config dataclass shares: the
numeric range check (:func:`check_number`) and the JSON round trip
(:class:`JsonForm`).
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, ClassVar

# --- data sizes (binary, as used for memory capacities) -------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# --- data sizes (decimal, as used for link bandwidths) --------------------
KB = 1_000
MB = 1_000 * KB
GB = 1_000 * MB

# --- time ------------------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3

#: One cycle of the flit-level NoC simulator (repro.noc): one nanosecond.
NOC_CYCLE_S = NS

#: One flit of the NoC simulator; the closed-form fault engine counts
#: corruption trials over the same flit population.
NOC_FLIT_BYTES = 16

# --- frequency -------------------------------------------------------------
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9


def is_finite_number(value: object) -> bool:
    """Whether ``value`` is a real, finite number.

    Config validators guard with this before range checks: a bare
    ``value <= 0`` lets NaN through (every comparison with NaN is
    false), and NaN/inf then propagate as garbage timings instead of a
    clear configuration error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value)


def check_number(
    value: object,
    name: str,
    error: type[Exception],
    *,
    integer: bool = False,
    at_least: float | None = None,
    above: float | None = None,
    at_most: float | None = None,
) -> None:
    """Raise ``error`` unless ``value`` is a finite number within bounds.

    The one range check every config ``__post_init__`` makes, so that
    each numeric field rejects bool, str, NaN and +-inf, not only the
    fields where someone remembered to.  ``integer`` also rejects
    floats; ``at_least``/``at_most`` are inclusive bounds and ``above``
    an exclusive lower bound.  ``error`` is the calling class's own
    configuration error type.
    """
    kind = type(value)
    # Exact ints and finite floats skip the general test: machine
    # configs make dozens of these checks on every construction.
    if (
        kind is not int
        and (integer or kind is not float or not math.isfinite(value))
        and (not is_finite_number(value)
             or (integer and not isinstance(value, int)))
    ):
        expected = "an int" if integer else "a finite number"
        raise error(f"{name} must be {expected}, got {value!r}")
    if (
        (at_least is not None and value < at_least)
        or (above is not None and value <= above)
        or (at_most is not None and value > at_most)
    ):
        bounds = " and ".join(
            f"{op} {bound:g}"
            for op, bound in ((">=", at_least), (">", above), ("<=", at_most))
            if bound is not None
        )
        raise error(f"{name} must be {bounds}, got {value!r}")


class JsonForm:
    """Mixin: the JSON form of a frozen config dataclass.

    :meth:`from_dict` rejects non-objects and unknown fields, turns JSON
    lists back into (nested) tuples, builds nested dataclass fields from
    their objects, and reports a bad spec -- a missing field included --
    as the class's own error; :meth:`as_dict` is its inverse.  A
    subclass names itself in messages with ``json_noun`` and picks its
    error type with ``json_error``.
    """

    json_noun: ClassVar[str]
    json_error: ClassVar[type[Exception]]

    def as_dict(self) -> dict[str, Any]:
        """JSON form: tuples become lists, nested configs objects."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: Any):
        """Inverse of :meth:`as_dict`, for specs read from files."""
        return _from_json(cls, data, cls.json_noun, cls.json_error)


def _to_json(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _to_tuples(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_to_tuples(item) for item in value)
    return value


def _from_json(cls: type, data: Any, noun: str, error: type[Exception]):
    if not isinstance(data, dict):
        raise error(f"{noun} must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise error(f"unknown {noun} field(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        if dataclasses.is_dataclass(hints[name]):
            value = _from_json(hints[name], value, f"{noun} {name!r}", error)
        kwargs[name] = _to_tuples(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise error(f"invalid {noun}: {exc}") from exc


def transfer_time(num_bytes: float, bandwidth_bytes_per_s: float) -> float:
    """Serialization time of ``num_bytes`` over a link.

    Zero-byte transfers take zero time; a non-positive bandwidth is a
    configuration error rather than an infinite transfer.
    """
    if num_bytes < 0:
        raise ValueError(f"cannot transfer a negative size: {num_bytes}")
    if num_bytes == 0:
        return 0.0
    if bandwidth_bytes_per_s <= 0:
        raise ValueError(
            f"bandwidth must be positive, got {bandwidth_bytes_per_s}"
        )
    return num_bytes / bandwidth_bytes_per_s


#: Suffixes accepted by :func:`parse_bytes`.  Collective payloads are
#: power-of-two shaped (they must divide across 2^k DPUs), so the short
#: forms KB/MB/GB parse as their binary siblings — "1MB" is 1 MiB.
_SIZE_MULTIPLIERS = {
    "": 1,
    "B": 1,
    "K": KIB,
    "KB": KIB,
    "KIB": KIB,
    "M": MIB,
    "MB": MIB,
    "MIB": MIB,
    "G": GIB,
    "GB": GIB,
    "GIB": GIB,
}


def parse_bytes(text: str) -> int:
    """Parse a human size string ("1MB", "32KiB", "4096") into bytes."""
    cleaned = str(text).strip()
    digits = cleaned
    suffix = ""
    for i, ch in enumerate(cleaned):
        if ch.isalpha():
            digits, suffix = cleaned[:i], cleaned[i:]
            break
    suffix = suffix.strip().upper()
    if suffix not in _SIZE_MULTIPLIERS:
        raise ValueError(
            f"unknown size suffix {suffix!r} in {text!r} "
            f"(known: {sorted(s for s in _SIZE_MULTIPLIERS if s)})"
        )
    try:
        value = float(digits.strip())
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"size {text!r} is not a finite number")
    num_bytes = value * _SIZE_MULTIPLIERS[suffix]
    if not math.isfinite(num_bytes):
        raise ValueError(f"size {text!r} overflows to infinity")
    if num_bytes <= 0 or num_bytes != int(num_bytes):
        raise ValueError(
            f"size {text!r} must be a positive whole number of bytes"
        )
    return int(num_bytes)


def fmt_seconds(seconds: float) -> str:
    """Human-readable duration, for reports and logs."""
    if seconds == 0:
        return "0 s"
    if abs(seconds) < US:
        return f"{seconds / NS:.4g} ns"
    if abs(seconds) < MS:
        return f"{seconds / US:.4g} us"
    if abs(seconds) < 1:
        return f"{seconds / MS:.4g} ms"
    return f"{seconds:.4g} s"
