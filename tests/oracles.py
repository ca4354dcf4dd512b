"""Reference code that only the tests call.

Independent oracles for the package's integrators and kernels: the spin-1
matrices, the lab-frame Hamiltonian and its exponential by
eigendecomposition, the SU(2) step as complex expressions, the lab protocol
run at a chosen step, a sampled population trace, the closed-form kernel
shape, the two-segment sequence at any timeshare and phase jump, the
finite-pulse Ramsey sequence, the sample-based kernel metrics and a reader
for the CSVs the CLI writes.
"""

from __future__ import annotations

import math

import numpy as np

from qslsense import labframe, spinlin
from qslsense.analytic import NumericError
from qslsense.labframe import NvModel, Protocol, Stimulus
from qslsense.sequence import PulseSegment

#: spin-1 angular momentum, ``SZ1 = diag(1, 0, -1)``, basis order (+1, 0, -1)
SX1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SY1 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
SZ1 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
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


def su2_propagator(wx, wy, wz, t):
    """:func:`qslsense.spinlin.su2_propagator` as complex expressions (its former form)."""
    wn = np.sqrt(wx * wx + wy * wy + wz * wz)
    th = 0.5 * wn * t
    c = np.cos(th)
    s = np.where(wn > 0, np.sin(th) / np.where(wn > 0, wn, 1.0), 0.5 * t)
    return (c - 1j * (s * wz), -1j * s * (wx - 1j * wy),
            -1j * s * (wx + 1j * wy), c + 1j * (s * wz))


def hamiltonian_at(model: NvModel, stim: Stimulus | None, pulse_on: bool,
                   carrier_phase: float, t: float) -> np.ndarray:
    """Instantaneous 3x3 Hermitian lab-frame Hamiltonian (rad/s) at time ``t``."""
    ge = labframe.GAMMA_E
    h = model.d * _SZ2 + ge * model.b0 * _SZ
    if pulse_on:
        m = math.cos(model.carrier * t + carrier_phase)
        h = h + ge * model.b1 * m * _SX
    if stim is not None:
        bs = labframe.stimulus_field([stim])(np.array([t]))[0, 0]
        h = h + ge * bs * (math.cos(model.chi) * _SZ + math.sin(model.chi) * _SX)
    return h.astype(complex)


def run_at(model: NvModel, stims, protocol: Protocol, dt: float) -> np.ndarray:
    """:func:`qslsense.labframe.run_protocol_batch` stepped with ``dt``, not its default step."""
    psis = np.tile(labframe.basis_state(protocol.prep), (len(stims), 1))
    psis = labframe._evolve_batch(model, stims, protocol, 0.0, protocol.duration, dt, psis)
    return 1.0 - np.abs(psis[:, labframe._BASIS_INDEX[protocol.prep]]) ** 2


def simulate_trace(model: NvModel, stim: Stimulus | None, protocol: Protocol,
                   n_samples: int = 200):
    """Populations and <Sz> sampled along one protocol run at its default step.

    Returns ``(t, populations, sz)`` with populations of shape (n, 3) in
    basis order (ms-1, ms0, ms+1).
    """
    dt = labframe.default_timestep(model, stim)
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


def kernel_value(t, omega: float, tau: float):
    """Unit-amplitude sensing kernel ``sin(Om(tau/2 - |t|))`` on |t| < tau/2, else 0.

    Accepts scalars or arrays for ``t``.  This is the shape only; the physical
    impulse response carries an extra factor sin(alpha)/2 fixed by the DC
    sensitivity (see response.estimate_kernel's normalization).
    """
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < tau / 2
    vals = np.where(inside, np.sin(omega * (tau / 2 - np.abs(t))), 0.0)
    return float(vals) if vals.ndim == 0 else vals


def make_split_bipartite(omega: float, tau: float, timeshare: float, phase_jump: float,
                         detuning: float = 0.0) -> tuple[PulseSegment, ...]:
    """Two-segment sequence: (k tau, phase 0) then ((1-k) tau, phase theta_jump).

    ``timeshare = 0.5`` and ``phase_jump = pi/2`` give
    :func:`qslsense.sequence.make_bipartite`.  The degenerate splits k = 0
    and k = 1 collapse to a single segment.
    """
    if not 0.0 <= timeshare <= 1.0:
        raise ValueError(f"timeshare must lie in [0, 1], got {timeshare}")
    if timeshare == 0.0:
        segs = (PulseSegment(tau, omega, phase_jump, detuning),)
    elif timeshare == 1.0:
        segs = (PulseSegment(tau, omega, 0.0, detuning),)
    else:
        segs = (PulseSegment(timeshare * tau, omega, 0.0, detuning),
                PulseSegment((1.0 - timeshare) * tau, omega, phase_jump, detuning))
    return segs


def make_ramsey_with_delay(omega: float, t_r: float, tau: float,
                           detuning: float = 0.0) -> tuple[PulseSegment, ...]:
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
    return segs


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


def numeric_metrics(times, values) -> dict:
    """FWHM, rise times and equivalent duration of the kernel sampled as ``values`` at ``times``.

    FWHM comes from half-peak threshold crossings with linear interpolation,
    the equivalent duration from trapezoid quadrature divided by the peak,
    and the rise times from the 20/80% and 10/90% crossings of the
    cumulative (step-response) integral.  The cumulative definition matches
    the closed forms of :func:`qslsense.analytic.rise_time` only as
    alpha -> 0; see that docstring.  Returns the four by name, each in seconds
    (None where its crossings are missing); nothing else is read off samples.
    """
    t = np.asarray(times, dtype=float)
    y = np.array(values, dtype=float)
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
    return {"t_fwhm": t_fwhm, "t_20_80": t_20_80, "t_10_90": t_10_90, "t_square": total / peak}


def read_csv(path):
    """Read a CSV written by :func:`qslsense.cli.write_csv`; returns (header, rows of strings)."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
