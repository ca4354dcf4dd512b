"""Optimality studies: timeshare/phase optimum, sensitivity surface, optimal duration.

The sensitivity objective for sinusoidal signals is the calibrated
transfer-function magnitude ``sin(alpha)/2 * sqrt(2 pi) * K(w)``, whose DC
value reproduces the analytic two-segment sensitivity magnitude exactly.
All optimizers refine a coarse-grid argmax with golden-section search; ties
on flat plateaus resolve toward smaller tau (better time resolution at
equal sensitivity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import bipartite_sensitivity, transfer_value

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class SensitivitySurface:
    """Sensitivity over a (signal frequency) x (pulse duration) grid.

    ``values[i, j]`` is the sensitivity at ``omega_grid[i]``,
    ``tau_grid[j]``; ``ridge`` holds (omega, tau*) rows of the per-frequency
    optimal duration.
    """

    omega_grid: np.ndarray
    tau_grid: np.ndarray
    values: np.ndarray
    ridge: np.ndarray

    def __post_init__(self):
        self.omega_grid = np.asarray(self.omega_grid, dtype=float)
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        if np.any(np.diff(self.omega_grid) <= 0) or np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("grids must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("surface values must be finite")


def golden_section_max(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal function on [a, b]; returns (x, f(x)).

    Stops once the bracket is narrower than ``tol`` relative, or after 200 steps.
    """
    c = b - (b - a) * _INV_GOLDEN
    d = a + (b - a) * _INV_GOLDEN
    fc, fd = f(c), f(d)
    for _ in range(200):
        if abs(b - a) <= tol * max(abs(a), abs(b), 1.0):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_GOLDEN
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_GOLDEN
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def sinusoid_sensitivity(omega_signal, omega_rabi: float, tau: float):
    """|dp| per unit detuning amplitude for a sinusoidal signal at ``omega_signal``.

    ``sin(alpha)/2 * sqrt(2 pi) * K(w)``; at w = 0 this reduces to
    ``sin(alpha)(1 - cos(alpha)) / Om``, the magnitude of the analytic
    two-segment sensitivity at the optimal timeshare and phase.  Units:
    seconds.  Accepts arrays for ``omega_signal``.
    """
    alpha = 0.5 * omega_rabi * tau
    return 0.5 * math.sin(alpha) * _SQRT_2PI * transfer_value(
        omega_signal, omega_rabi, tau)


def scan_timeshare_phase(omega: float, tau: float) -> tuple[float, float, float]:
    """Locate the (timeshare, phase-jump) pair maximizing |sensitivity|.

    Scans 41 points over [0, 1] and 41 over [0, pi], then refines each axis
    with golden-section search to 1e-9 relative.  The objective is
    separable in (k, theta), so one refinement pass per axis suffices.
    Returns (k*, theta*, |eta|*).
    """
    k_grid = np.linspace(0.0, 1.0, 41)
    theta_grid = np.linspace(0.0, math.pi, 41)

    def objective(k: float, theta: float) -> float:
        return abs(bipartite_sensitivity(omega, tau, k, theta))

    vals = np.array([[objective(k, th) for th in theta_grid] for k in k_grid])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    k_best, th_best = float(k_grid[i]), float(theta_grid[j])

    lo = k_grid[max(i - 1, 0)]
    hi = k_grid[min(i + 1, len(k_grid) - 1)]
    k_best, _ = golden_section_max(lambda k: objective(k, th_best), lo, hi, tol=1e-9)
    lo = theta_grid[max(j - 1, 0)]
    hi = theta_grid[min(j + 1, len(theta_grid) - 1)]
    th_best, eta_best = golden_section_max(lambda th: objective(k_best, th), lo, hi, tol=1e-9)
    return k_best, th_best, eta_best


@functools.lru_cache(maxsize=8)
def _coarse_grid(omega_rabi: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`optimal_duration`'s 512 durations in (0, pi/Om] and their prefactors; read-only."""
    tau_max = math.pi / omega_rabi
    taus = np.linspace(tau_max / 512, tau_max, 512)
    prefactor = np.array([0.5 * math.sin(0.5 * omega_rabi * t) * _SQRT_2PI for t in taus])
    taus.flags.writeable = prefactor.flags.writeable = False
    return taus, prefactor


def optimal_duration(omega_signal: float, omega_rabi: float) -> tuple[float, bool]:
    """Duration maximizing :func:`sinusoid_sensitivity` at one signal frequency.

    Searches tau in (0, pi/Om] (flip angle capped at 90 degrees) on a
    512-point grid refined by golden-section search to 1e-10 relative.  Returns
    ``(tau*, low_confidence)``; the flag is set when the objective is flat
    over the whole domain (huge signal frequencies), in which case the
    smallest-tau maximizer is reported.  A negative or non-finite signal
    frequency, or a Rabi frequency that is not finite and > 0, raises
    ValueError.

    The coarse grid is one array call of :func:`transfer_value` over tau
    (its series branch and overflow guard included) times the per-tau
    ``math.sin`` prefactor, the arithmetic of :func:`sinusoid_sensitivity`
    point by point; the durations and prefactors are built once per Rabi
    rate.  The golden-section refinement calls it per point.
    """
    if not (math.isfinite(omega_signal) and omega_signal >= 0):
        raise ValueError(f"signal frequency must be finite and >= 0, got {omega_signal}")
    if not (math.isfinite(omega_rabi) and omega_rabi > 0):
        raise ValueError(f"Rabi frequency must be finite and > 0, got {omega_rabi}")
    taus, prefactor = _coarse_grid(omega_rabi)
    vals = prefactor * transfer_value(omega_signal, omega_rabi, taus)
    top = float(vals.max())
    if top <= 0 or (top - float(vals.min())) <= 1e-12 * top:
        return float(taus[int(np.argmax(vals))]), True
    i = int(np.argmax(vals))
    lo = taus[max(i - 1, 0)]
    hi = taus[min(i + 1, len(taus) - 1)]
    tau_star, _ = golden_section_max(
        lambda t: sinusoid_sensitivity(omega_signal, omega_rabi, t), lo, hi)
    return float(tau_star), False


def sensitivity_surface(omega_rabi: float, omega_grid, tau_grid) -> SensitivitySurface:
    """Sensitivity over the full (omega, tau) grid plus the optimal-duration ridge."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    tau_cap = math.pi / omega_rabi
    if tau_grid[-1] > tau_cap * (1.0 + 1e-12):
        raise ValueError(f"tau grid exceeds the flip-angle cap pi/Om = {tau_cap:.3e} s")
    values = np.empty((len(omega_grid), len(tau_grid)))
    for j, tau in enumerate(tau_grid):
        values[:, j] = sinusoid_sensitivity(omega_grid, omega_rabi, tau)
    ridge = np.array([[w, optimal_duration(w, omega_rabi)[0]] for w in omega_grid])
    return SensitivitySurface(omega_grid, tau_grid, values, ridge)
