"""Quantity parsing for CLI flags and configuration documents.

Internally every frequency is angular (rad/s): cycle-frequency suffixes (Hz
and multiples) are multiplied by 2 pi on ingestion, rad/s suffixes pass
through.  Times are seconds, angles radians.  A value without
a unit suffix is only accepted for dimensionless quantities; everything else
raises :class:`ConfigError` naming the offending field, as does a nonzero
frequency, time or angle whose magnitude lies outside :data:`DOMAIN`.
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

#: magnitudes (low, high, SI unit) a nonzero value of each unit family may take,
#: far beyond any NV input (Rabi rates of kHz to GHz, pulses of ns to us):
#: - frequency (every rate and frequency) and time: any flip angle in [1e-3, pi/2]
#:   at any rate in the domain gives a duration 2 alpha/Omega in [2e-23, 3.2e6] s,
#:   inside the time domain, and no square or cube of a value of either, nor a
#:   product of a few, leaves the float range;
#: - angle: from 1e-3 rad the rotating kernel's centre, read off a probability
#:   change of order alpha^2 against 1, is within 2e-5 of its small-angle limit;
#:   1e3 rad, some 160 turns, is far above the pi/2 that most commands accept.
DOMAIN = {"frequency": (1e-6, 1e20, "rad/s"), "time": (1e-23, 1e7, "s"),
          "angle": (1e-3, 1e3, "rad")}

_NUMBER = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def parse_quantity(text: str, kind: str, field: str = "value") -> float:
    """Parse ``text`` like "10MHz", "50 ns", "90deg" into internal units.

    ``kind`` is one of "frequency", "time", "angle", "dimensionless".
    Frequencies come back in rad/s regardless of whether a cycle (Hz) or
    angular (rad/s) suffix was given.  A frequency, time or angle must lie
    in :data:`DOMAIN` (:func:`check_domain`); a dimensionless value need not.
    """
    m = _NUMBER.match(str(text))
    if not m:
        raise ConfigError(f"{field}: cannot parse {text!r} as a number with unit")
    value = float(m.group(1))
    suffix = m.group(2)
    if kind == "dimensionless":
        if suffix:
            raise ConfigError(f"{field}: unexpected unit {suffix!r} on dimensionless value")
        return value
    table = _TABLES.get(kind)
    if table is None:
        raise ConfigError(f"{field}: unknown quantity kind {kind!r}")
    if not suffix:
        raise ConfigError(f"{field}: missing unit on {text!r}; expected one of {', '.join(table)}")
    if suffix not in table:
        raise ConfigError(f"{field}: unknown unit {suffix!r}; expected one of {', '.join(table)}")
    return check_domain(value * table[suffix], kind, f"{field} {text!r}")


def check_domain(value: float, kind: str, what: str) -> float:
    """``value`` if 0 or of a magnitude in ``DOMAIN[kind]``, else ConfigError naming ``what``."""
    low, high, unit = DOMAIN[kind]
    if value != 0 and not low <= abs(value) <= high:
        raise ConfigError(f"{what} is {value:.6g} {unit}, outside the {kind} domain "
                          f"[{low:g}, {high:g}] {unit}")
    return value
