"""Numerical extraction of sensing kernels, Bode plots, and kernel metrics.

Two interchangeable protocol runners drive the estimators:

* :class:`RotatingFrameRunner`: the two-pulse sequence for a spin-1/2 probe
  with an arbitrary time-dependent detuning, stepped with exact 2x2
  rotations sampled at interval midpoints.  Fast enough for dense sweeps.
* :class:`LabFrameRunner`: the full spin-1 model of
  :mod:`qslsense.labframe`, for strong-driving and off-axis studies.

Both expose ``omega`` (Rabi, rad/s), ``tau`` (s), ``gamma`` (rad/s per
tesla), ``chi`` (rad) and ``run_batch`` returning one transition
probability per stimulus.  Kernel time runs from the sequence midpoint,
tau/2.

The kernel estimator probes the sequence with a narrow Gaussian stepped
along a delay grid and divides the probability change by the probe area.
The raw estimate equals ``c * sin(Om(tau/2 - |t|))`` where the constant
``c`` is calibrated against the DC (constant stimulus) response and stored
in ``KernelEstimate.normalization`` (c = -sin(alpha)/2 under this package's
sign convention, -1/2 at alpha = pi/2); only the kernel's shape is
convention-free.

Off-axis kernels (chi != 0): the probe's transverse part ``sin(chi) Sx``
tilts the spin's quantisation axis by about gamma B sin(chi) / w_t, where
w_t is the nearest transition frequency.  The tilt registers at first order
at the sequence edges, where the drive switches on (t = 0) and where readout
projects onto Sz (t = tau).  The measured shape therefore equals the axial
shape, scaled by cos(chi), only while the probe is slow compared with the
spin's transition frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, labframe, spinlin
from .analytic import MetricsReport, NumericError
from .labframe import Stimulus

TWO_PI = 2.0 * math.pi
_GAUSS_AREA = math.sqrt(math.pi / (4.0 * math.log(2.0)))  # area = amp * fwhm * this


class FitError(RuntimeError):
    """Least-squares fit is degenerate or invalid."""


@dataclass
class KernelEstimate:
    """Sampled kernel: times (s, relative to the sequence center) and raw values.

    ``values[i]`` is the probability change per unit (detuning amplitude *
    time), i.e. dp / (gamma * probe_area).  ``values / normalization``
    recovers the unit-amplitude kernel shape.
    """

    times: np.ndarray
    values: np.ndarray
    tau: float
    omega: float
    normalization: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("kernel times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")


@dataclass
class BodeSeries:
    """Gains |A(w)| normalized to the DC response, with per-point quality flags."""

    frequencies: np.ndarray
    gains: np.ndarray
    chi: float = 0.0
    flagged: np.ndarray = field(default=None)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.gains = np.asarray(self.gains, dtype=float)
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(self.gains < 0):
            raise ValueError("gains must be >= 0")
        if self.flagged is None:
            self.flagged = np.zeros(len(self.frequencies), dtype=bool)


class RotatingFrameRunner:
    """Two-pulse spin-1/2 protocol with a time-dependent detuning stimulus.

    The detuning is ``gamma * B_stim(t)``; the drive axis is Y on
    [0, tau/2) and X on [tau/2, tau), matching :mod:`qslsense.sequence`.
    Stepping is exact per step (2x2 rotation about the midpoint-sampled
    axis), second order in the stimulus variation.
    """

    chi = 0.0

    def __init__(self, omega: float, tau: float,
                 gamma: float = TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA):
        if omega <= 0 or tau <= 0:
            raise ValueError("omega and tau must be > 0")
        self.omega = omega
        self.tau = tau
        self.gamma = gamma

    @property
    def alpha(self) -> float:
        return 0.5 * self.omega * self.tau

    def _step(self, stim: Stimulus | None) -> float:
        scales = [self.omega / TWO_PI]
        if stim is not None:
            scales.append(self.gamma * abs(stim.amplitude) / TWO_PI)
            if stim.kind == "sinusoid":
                scales.append(stim.frequency / TWO_PI)
            elif stim.kind == "gaussian":
                scales.append(1.0 / stim.fwhm)
        return min(1.0 / (100.0 * max(scales)), self.tau / 100.0)

    def run_batch(self, stims) -> np.ndarray:
        """Transition probabilities for a batch of stimuli sharing the time grid."""
        n_runs = len(stims)
        dt = min(self._step(s) for s in stims)
        psi0 = np.zeros(n_runs, dtype=complex)
        psi1 = np.zeros(n_runs, dtype=complex)
        psi0[:] = 1.0
        for (t_a, t_b, wx, wy) in ((0.0, self.tau / 2, 0.0, self.omega),
                                   (self.tau / 2, self.tau, self.omega, 0.0)):
            n = max(1, int(math.ceil((t_b - t_a) / dt)))
            h = (t_b - t_a) / n
            tm = t_a + (np.arange(n) + 0.5) * h
            dw = np.zeros((n_runs, n))
            for k, stim in enumerate(stims):
                if stim is not None:
                    dw[k] = self.gamma * stim.value(tm)
            for i in range(n):
                u00, u01, u10, u11 = spinlin.su2_propagator(wx, wy, dw[:, i], h)
                psi0, psi1 = u00 * psi0 + u01 * psi1, u10 * psi0 + u11 * psi1
        return 1.0 - np.abs(psi0) ** 2


class LabFrameRunner:
    """Protocol runner backed by the full spin-1 lab-frame model."""

    def __init__(self, model: labframe.NvModel, tau: float | None = None):
        self.model = model
        self.omega = labframe.rabi_frequency(model)
        if self.omega <= 0:
            raise ValueError("model has no drive (b1 = 0)")
        self.tau = tau if tau is not None else math.pi / self.omega
        self.gamma = model.gamma_e
        self.chi = model.chi
        self.protocol = labframe.bipartite_protocol(self.tau)

    def run_batch(self, stims) -> np.ndarray:
        return labframe.run_protocol_batch(self.model, stims, self.protocol)


def fit_sine_amplitude(samples, omega: float) -> tuple[float, float, float]:
    """Least-squares fit of (t, y) samples to ``a sin(wt) + b cos(wt)``.

    Returns (amplitude, phase, residual) with amplitude = hypot(a, b), phase
    = atan2(b, a) and residual the RMS misfit.  Needs at least 4 samples
    spanning at least one period.  The design is judged by its 2x2 normal
    matrix ``[[ss, sc], [sc, cc]]`` on a scale-free basis: when
    ``det <= 1e-12 * (ss + cc)**2`` (all samples at the same drive phase,
    say) it is rank-deficient and :class:`FitError` is raised.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (t, value)")
    if omega <= 0:
        raise ValueError("omega must be > 0")
    t, y = arr[:, 0], arr[:, 1]
    if len(t) < 4:
        raise ValueError(f"need at least 4 samples, got {len(t)}")
    # effective span counts the wrap gap, so an endpoint-exclusive uniform
    # sweep over one period qualifies
    span = (t.max() - t.min()) * len(t) / (len(t) - 1)
    if span < (1.0 - 1e-9) * TWO_PI / omega:
        raise ValueError("samples must span at least one period")
    s = np.sin(omega * t)
    c = np.cos(omega * t)
    ss, cc, sc = s @ s, c @ c, s @ c
    det = ss * cc - sc * sc
    # relative to the trace, so a rounding-noise ss (or cc) cannot pass
    if det <= 1e-12 * (ss + cc) ** 2:
        raise FitError("degenerate design: samples do not separate sine and cosine")
    sy, cy = s @ y, c @ y
    a = (cc * sy - sc * cy) / det
    b = (ss * cy - sc * sy) / det
    resid = math.sqrt(float(np.mean((a * s + b * c - y) ** 2)))
    return math.hypot(a, b), math.atan2(b, a), resid


def estimate_kernel(sim, probe_fwhm: float, t_grid) -> KernelEstimate:
    """Sample the sensing kernel by stepping a narrow Gaussian probe along ``t_grid``.

    ``t_grid`` is in kernel time (seconds relative to the sequence center).
    The probe must be at least 10x narrower than the expected kernel FWHM.
    The probe amplitude targets a peak phase of ~1e-3 rad so the response
    stays linear.  The DC calibration constant is measured with a constant
    stimulus and stored as ``normalization``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    alpha = 0.5 * sim.omega * sim.tau
    expected = analytic.time_resolution_fwhm(sim.tau, alpha)
    if probe_fwhm > expected / 10.0:
        raise ValueError(
            f"probe fwhm {probe_fwhm:.3e} s too wide: expected kernel fwhm "
            f"{expected:.3e} s requires <= {expected / 10.0:.3e} s")
    amplitude = 1e-3 / (sim.gamma * probe_fwhm * _GAUSS_AREA)
    stims = [Stimulus.gaussian(amplitude, sim.tau / 2.0 + t, probe_fwhm) for t in t_grid]
    p = sim.run_batch(stims + [None])
    p0 = p[-1]
    area = stims[0].area()
    values = (p[:-1] - p0) / (sim.gamma * area)

    amp_dc = 1e-3 / (sim.gamma * sim.tau)
    p_dc = sim.run_batch([Stimulus.constant(amp_dc), None])
    shape_area = 2.0 * (1.0 - math.cos(alpha)) / sim.omega
    norm = float((p_dc[0] - p_dc[1]) / (sim.gamma * amp_dc * shape_area))
    return KernelEstimate(times=t_grid, values=values, tau=sim.tau,
                          omega=sim.omega, normalization=norm)


def bode_response(sim, omega_grid, amplitude: float) -> BodeSeries:
    """Frequency response by delay-sweeping a sinusoidal stimulus and sine-fitting dp.

    For each frequency the stimulus delay is stepped over one period in 10
    steps, the probability change is fit to a sinusoid in the delay, and
    |amplitude| is normalized to the DC (constant stimulus) response.  The
    w = 0 gain is 1 by definition.  Points whose fit residual exceeds
    ``0.05 * max(|A|, 0.05 |dp_dc|)`` are flagged, not dropped.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(omega_grid < 0):
        raise ValueError("frequencies must be >= 0")
    p_dc = sim.run_batch([Stimulus.constant(amplitude), None])
    dp_dc = float(p_dc[0] - p_dc[1])
    p0 = float(p_dc[1])
    if dp_dc == 0.0:
        raise NumericError("DC response vanished; cannot normalize Bode gains")
    gains = np.empty(len(omega_grid))
    flags = np.zeros(len(omega_grid), dtype=bool)
    for i, w in enumerate(omega_grid):
        if w == 0.0:
            gains[i] = 1.0
            continue
        delays = np.arange(10) / 10 * TWO_PI / w
        stims = [Stimulus.sinusoid(amplitude, w, phase=-w * d) for d in delays]
        p = sim.run_batch(list(stims))
        dp = p - p0
        amp, _, resid = fit_sine_amplitude(np.column_stack([delays, dp]), w)
        gains[i] = amp / abs(dp_dc)
        flags[i] = resid > 0.05 * max(amp, 0.05 * abs(dp_dc))
    return BodeSeries(frequencies=omega_grid, gains=gains, chi=getattr(sim, "chi", 0.0),
                      flagged=flags)


def _crossings(t: np.ndarray, y: np.ndarray, level: float) -> list[float]:
    """Times where the piecewise-linear interpolant of y crosses ``level``."""
    out = []
    for i in range(len(t) - 1):
        y0, y1 = y[i] - level, y[i + 1] - level
        if y0 == 0.0:
            out.append(float(t[i]))
        elif y0 * y1 < 0:
            out.append(float(t[i] + (t[i + 1] - t[i]) * y0 / (y0 - y1)))
    if len(t) and y[-1] == level:
        out.append(float(t[-1]))
    return out


def numeric_metrics(kernel: KernelEstimate) -> MetricsReport:
    """Sample-based kernel metrics: FWHM, rise times, and equivalent duration.

    FWHM comes from half-peak threshold crossings with linear interpolation,
    the equivalent duration from trapezoid quadrature divided by the peak,
    and the rise times from the 20/80% and 10/90% crossings of the
    cumulative (step-response) integral.  The cumulative definition matches
    the closed forms of :func:`qslsense.analytic.rise_time` only as
    alpha -> 0; see that docstring.  Bandwidths, epsilon and p0 are not
    estimated from samples and stay None.
    """
    t = kernel.times
    y = kernel.values.copy()
    peak_idx = int(np.argmax(np.abs(y)))
    if y[peak_idx] < 0:
        y = -y
    peak = y[peak_idx]
    if peak <= 0:
        raise ValueError("kernel has no positive peak after sign normalization")
    if int(np.sum(y > peak / 2)) < 10:
        raise ValueError("kernel peak not resolvable: fewer than 10 samples above half maximum")

    # multimodality: distinct runs of samples above half maximum
    above = y > peak / 2
    starts = np.nonzero(above[1:] & ~above[:-1])[0]
    n_runs = int(above[0]) + len(starts)
    if n_runs > 1:
        peaks = []
        run_start = 0 if above[0] else None
        for i in range(1, len(above)):
            if above[i] and not above[i - 1]:
                run_start = i
            elif not above[i] and above[i - 1] and run_start is not None:
                seg = slice(run_start, i)
                peaks.append(float(t[seg][np.argmax(y[seg])]))
                run_start = None
        if run_start is not None:
            seg = slice(run_start, len(above))
            peaks.append(float(t[seg][np.argmax(y[seg])]))
        raise NumericError(f"kernel is multi-modal; candidate peaks at t = {peaks}")

    half_cross = _crossings(t, y, peak / 2)
    t_fwhm = half_cross[-1] - half_cross[0] if len(half_cross) >= 2 else None

    total = float(np.trapezoid(y, t))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))]) / total
    levels = {q: _crossings(t, cum, q) for q in (0.1, 0.2, 0.8, 0.9)}
    t_20_80 = (levels[0.8][0] - levels[0.2][0]
               if levels[0.2] and levels[0.8] else None)
    t_10_90 = (levels[0.9][0] - levels[0.1][0]
               if levels[0.1] and levels[0.9] else None)
    return MetricsReport(t_fwhm=t_fwhm, t_20_80=t_20_80, t_10_90=t_10_90,
                         t_square=total / peak)
