"""Quantity parsing for CLI flags and configuration documents.

Internally every frequency is angular (rad/s): cycle-frequency suffixes (Hz
and multiples) are multiplied by 2 pi on ingestion, rad/s suffixes pass
through.  Times are seconds, angles radians.  A value without
a unit suffix is only accepted for dimensionless quantities; everything else
raises :class:`ConfigError` naming the offending field.
"""

from __future__ import annotations

import math
import re


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


TWO_PI = 2.0 * math.pi

_FREQ = {"Hz": TWO_PI, "kHz": TWO_PI * 1e3, "MHz": TWO_PI * 1e6,
         "GHz": TWO_PI * 1e9, "THz": TWO_PI * 1e12,
         "rad/s": 1.0, "krad/s": 1e3, "Mrad/s": 1e6, "Grad/s": 1e9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12}
_ANGLE = {"rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0}

_TABLES = {"frequency": _FREQ, "time": _TIME, "angle": _ANGLE}

_NUMBER = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def parse_quantity(text: str, kind: str, field: str = "value") -> float:
    """Parse ``text`` like "10MHz", "50 ns", "90deg" into internal units.

    ``kind`` is one of "frequency", "time", "angle", "dimensionless".
    Frequencies come back in rad/s regardless of whether a cycle (Hz) or
    angular (rad/s) suffix was given.  A value that overflows to infinity,
    as written or once converted, raises :class:`ConfigError`.
    """
    m = _NUMBER.match(str(text))
    if not m:
        raise ConfigError(f"{field}: cannot parse {text!r} as a number with unit")
    value = float(m.group(1))
    suffix = m.group(2)
    if kind == "dimensionless":
        if suffix:
            raise ConfigError(f"{field}: unexpected unit {suffix!r} on dimensionless value")
        scale = 1.0
    else:
        table = _TABLES.get(kind)
        if table is None:
            raise ConfigError(f"{field}: unknown quantity kind {kind!r}")
        if not suffix:
            raise ConfigError(
                f"{field}: missing unit on {text!r}; expected one of {', '.join(table)}")
        if suffix not in table:
            raise ConfigError(
                f"{field}: unknown unit {suffix!r}; expected one of {', '.join(table)}")
        scale = table[suffix]
    if not math.isfinite(value * scale):
        raise ConfigError(f"{field}: {text!r} is out of the floating-point range")
    return value * scale
