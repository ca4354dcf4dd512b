"""Workload definitions: the qslsense CLI commands one repetition runs.

A workload's seed picks an input variant (``seed % variants(name)``); each
variant draws its physical inputs from the stated ranges with
``random.Random(variant)``, so the same seed always gives the same command
lines.  Every variant of a workload does the same amount of work:

* ``lab_kernel`` fixes tau = 10 ns, so the lab-frame step count is fixed,
  and draws the flip angle (and hence the Rabi rate 2 alpha / tau).
* ``rotating_analytic`` draws the Rabi rate (a whole number of MHz), which
  the rotating-frame and closed-form costs are invariant to, plus the cheap
  closed-form inputs (metrics flip angle, fig2 duration range, optimal
  frequency range).  Runner-backed commands keep alpha = 90 deg because the
  rotating-frame step count scales with alpha.  At 6 and 12 MHz the
  90-degree commands of the reference commit fail (the flip angle recomputed
  from the Rabi rate and duration rounds above pi/2); make_refs.py refuses
  variants that fail.
* ``lab_sweep`` runs ``fig4d`` and ``offaxis``, which take no physical input
  on the command line, only point counts that change the cost; it has one
  variant.

Grid sizes are fixed per size class ("full" for measurement, "tiny" for the
self-tests), never drawn from the seed, so runs on different seeds stay
comparable.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("lab_kernel", "lab_sweep", "rotating_analytic")
SIZES = ("full", "tiny")

# Number of input variants per workload: variant 0 is the default seed's,
# variant 1 the held-out one (see make_refs.py).
_VARIANTS = {"lab_kernel": 2, "lab_sweep": 1, "rotating_analytic": 2}


def variants(workload: str) -> int:
    return _VARIANTS[workload]


def variant_of(workload: str, seed: int) -> int:
    return seed % variants(workload)


def _g(x: float) -> str:
    return "%.6g" % x


def _lab_kernel(rng: random.Random, size: str) -> list[list[str]]:
    alpha = rng.uniform(60.0, 90.0)
    tau_ns, points = (10.0, 121) if size == "full" else (2.0, 5)
    return [["kernel", "--backend", "lab", "--tau", _g(tau_ns) + "ns",
             "--alpha", _g(alpha) + "deg", "--points", str(points)]]


def _lab_sweep(rng: random.Random, size: str) -> list[list[str]]:
    fig4d_points, offaxis_points = (3, 3) if size == "full" else (2, 2)
    return [["fig4d", "--points", str(fig4d_points)],
            ["offaxis", "--points", str(offaxis_points)]]


def _rotating_analytic(rng: random.Random, size: str) -> list[list[str]]:
    rabi_hz = 1e6 * rng.randint(5, 20)
    metrics_alpha = rng.uniform(20.0, 90.0)
    tau_max_ratio = rng.uniform(6.0, 10.0)   # fig2 tau-max in units of t_R
    max_freq_ratio = rng.uniform(3.0, 5.0)   # optimal max-freq in units of Rabi
    if size == "full":
        n = {"kernel": 241, "bode": 51, "fig3b": 151, "fig3c": 44, "fig3d_w": 101,
             "fig3d_t": 80, "optimal": 61, "fig2": 400}
    else:
        n = {"kernel": 11, "bode": 4, "fig3b": 11, "fig3c": 4, "fig3d_w": 5,
             "fig3d_t": 5, "optimal": 5, "fig2": 10}
    rabi = _g(rabi_hz / 1e6) + "MHz"
    t_r_ns = (math.pi / 2.0) / (2.0 * math.pi * rabi_hz) * 1e9
    return [
        ["--check"],
        ["kernel", "--rabi", rabi, "--alpha", "90deg", "--points", str(n["kernel"])],
        ["bode", "--rabi", rabi, "--alpha", "90deg", "--points", str(n["bode"])],
        ["fig3b", "--rabi", rabi, "--points", str(n["fig3b"])],
        ["fig3c", "--rabi", rabi, "--points", str(n["fig3c"])],
        ["fig3d", "--rabi", rabi, "--omega-points", str(n["fig3d_w"]),
         "--tau-points", str(n["fig3d_t"])],
        ["optimal", "--rabi", rabi, "--max-freq", _g(max_freq_ratio * rabi_hz / 1e6) + "MHz",
         "--points", str(n["optimal"])],
        ["metrics", "--rabi", rabi, "--alpha", _g(metrics_alpha) + "deg"],
        ["fig2", "--rabi", rabi, "--tau-max", _g(tau_max_ratio * t_r_ns) + "ns",
         "--points", str(n["fig2"])],
        ["qsl", "--rabi", rabi],
    ]


_GENERATORS = {"lab_kernel": _lab_kernel, "lab_sweep": _lab_sweep,
             "rotating_analytic": _rotating_analytic}


def commands(workload: str, variant: int, size: str = "full") -> list[list[str]]:
    """The CLI argument lists one repetition of ``workload`` runs, in order."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")
    return _GENERATORS[workload](random.Random(variant), size)


def command_name(argv: list[str]) -> str:
    """Span and metric name of one command: its subcommand, or ``check``."""
    return "check" if argv[0] == "--check" else argv[0]
