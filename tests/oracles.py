"""Reference code that only the tests call.

Independent oracles for the package's integrators and kernels: the lab-frame
Hamiltonian and its exponential by eigendecomposition, a sampled population
trace, the finite-pulse Ramsey sequence, the sample-based kernel metrics and
a reader for the CSVs the CLI writes.
"""

from __future__ import annotations

import math

import numpy as np

from qslsense import labframe, spinlin
from qslsense.analytic import MetricsReport, NumericError
from qslsense.labframe import NvModel, Protocol, Stimulus
from qslsense.response import KernelEstimate
from qslsense.sequence import ControlSequence, PulseSegment

SX1, _, SZ1 = spinlin.spin_operators("one")
_SX = SX1.real.copy()
_SZ = SZ1.real.copy()
_SZ2 = (_SZ @ _SZ)


def matexp_antihermitian(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i H t)`` for a Hermitian 2x2 or 3x3 ``h``.

    A 3x3 ``h`` goes through a Hermitian eigendecomposition, anything else
    to :func:`qslsense.spinlin.matexp_antihermitian`.  Raises
    :class:`~qslsense.spinlin.ContractViolation` for non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (3, 3):
        return spinlin.matexp_antihermitian(h, t)
    spinlin.check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def hamiltonian_at(model: NvModel, stim: Stimulus | None, pulse_on: bool,
                   carrier_phase: float, t: float) -> np.ndarray:
    """Instantaneous 3x3 Hermitian lab-frame Hamiltonian (rad/s) at time ``t``."""
    h = model.d * _SZ2 + model.gamma_e * model.b0 * _SZ
    if pulse_on:
        m = math.cos(model.carrier * t + carrier_phase)
        h = h + model.gamma_e * model.b1 * m * _SX
    if stim is not None:
        bs = stim.value(t)
        h = h + model.gamma_e * bs * (math.cos(model.chi) * _SZ + math.sin(model.chi) * _SX)
    return h.astype(complex)


def simulate_trace(model: NvModel, stim: Stimulus | None, protocol: Protocol,
                   dt: float | None = None, n_samples: int = 200):
    """Populations and <Sz> sampled along one protocol run.

    Returns ``(t, populations, sz)`` with populations of shape (n, 3) in
    basis order (ms-1, ms0, ms+1).
    """
    if dt is None:
        dt = labframe.default_timestep(model, stim)
    labframe._check_timestep(model, stim, dt)
    times = np.linspace(0.0, protocol.duration, n_samples)
    psi = labframe.basis_state(protocol.prep)
    pops = np.empty((n_samples, 3))
    sz = np.empty(n_samples)
    pops[0] = np.abs(psi) ** 2
    sz[0] = spinlin.expectation(SZ1, psi)
    for i in range(1, n_samples):
        psi = labframe._evolve_batch(model, [stim], protocol, times[i - 1], times[i], dt,
                                     psi[None, :])[0]
        pops[i] = np.abs(psi) ** 2
        sz[i] = spinlin.expectation(SZ1, psi)
    return times, pops, sz


def make_ramsey_with_delay(omega: float, t_r: float, tau: float,
                           detuning: float = 0.0) -> ControlSequence:
    """Ramsey sequence with finite pulse duration: pulse, free evolution, pulse.

    Segments (t_r, phase 0), (tau - 2 t_r, drive off), (t_r, phase pi/2), all
    at the given detuning.  The flip angle per pulse is omega * t_r; the
    ideal-Ramsey limit is approached by shrinking t_r at fixed omega * t_r.
    Requires tau >= 2 t_r.
    """
    if t_r < 0 or tau < 2 * t_r:
        raise ValueError(f"need 0 <= 2*t_r <= tau, got t_r={t_r}, tau={tau}")
    segs = (PulseSegment(t_r, omega, 0.0, detuning),
            PulseSegment(tau - 2 * t_r, 0.0, 0.0, detuning),
            PulseSegment(t_r, omega, math.pi / 2, detuning))
    return ControlSequence(segs)


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


def read_csv(path):
    """Read a CSV written by :func:`qslsense.cli.write_csv`; returns (header, rows of strings)."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
