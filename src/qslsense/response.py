"""Numerical extraction of sensing kernels, Bode plots, and kernel metrics.

Two interchangeable protocol runners drive the estimators:

* :class:`RotatingFrameRunner`: the two-pulse sequence for a spin-1/2 probe
  with an arbitrary time-dependent detuning, stepped with exact 2x2
  rotations sampled at interval midpoints.  Fast enough for dense sweeps.
* :class:`LabFrameRunner`: the full spin-1 model of
  :mod:`qslsense.labframe`, for strong-driving and off-axis studies.

Both expose ``omega`` (Rabi, rad/s), ``tau`` (s), ``gamma`` (rad/s per
tesla), ``chi`` (rad) and ``run_batch(stims, sizes=None)`` returning one
transition probability per stimulus.  ``sizes`` cuts the stimuli into
consecutive groups, each run as a batch of its own (its own time grid);
the rotating runner steps all groups in one pass, so a whole Bode sweep,
its DC pair and every frequency's delays, is one call.  Kernel time runs
from the sequence midpoint, tau/2.

The kernel estimator probes the sequence with a narrow Gaussian stepped
along a delay grid and divides the probability change by the probe area.
Each runner says how it measures that change, and the change a constant
(DC) stimulus causes (``probe_responses``): the rotating runner runs every
probe and the DC pair in one call, while the lab runner takes the exact
linear response of its integrator from one reference run and its adjoint
(:func:`qslsense.labframe.linear_response`), so the lab probes cost the
same two passes for any number of probes.  The raw estimate equals
``c * sin(Om(tau/2 - |t|))`` where the constant ``c`` is calibrated against
the DC (constant stimulus) response and stored in
``KernelEstimate.normalization`` (c = -sin(alpha)/2 under this package's
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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, labframe, spinlin
from .analytic import NumericError
from .labframe import Stimulus

TWO_PI = 2.0 * math.pi
_GAUSS_AREA = math.sqrt(math.pi / (4.0 * math.log(2.0)))  # area = amp * fwhm * this
#: largest (steps x runs) block of SU(2) factors in RotatingFrameRunner.run_batch
#: (one complex factor array is 64 kB; 2048 and 7744 entries were slower)
_BLOCK_ENTRIES = 4096
#: nonzero frequencies per run_batch call of bode_response; bounds the
#: stimuli and per-run arrays held at once (about 5 kB per frequency)
_SWEEP_FREQUENCIES = 200


def _group_bounds(n_runs: int, sizes) -> list[tuple[int, int]]:
    """(start, stop) of each consecutive group of ``sizes`` runs; one group if None."""
    sizes = [n_runs] if sizes is None else list(sizes)
    if any(s < 0 for s in sizes) or sum(sizes) != n_runs:
        raise ValueError(f"group sizes must be >= 0 and sum to the {n_runs} runs, got {sizes}")
    stops = list(itertools.accumulate(sizes))
    return list(zip([0] + stops[:-1], stops))


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

    ``run_batch`` steps several groups of runs, each on its own time grid,
    in one pass.  The runs are sorted by step count, longest first, so at
    step j the runs still stepping are a prefix, and only that prefix is
    updated: no run takes a step its own grid does not have.  The stimuli
    (at per-run step times) and the SU(2) factors are evaluated for blocks
    of at most :data:`_BLOCK_ENTRIES` steps x runs (one step if the runs
    alone exceed it), as one step-major array, then applied step by step.
    Every factor and state update is elementwise and out of place, so a
    run's result has the same bits in any batch or group as alone on the
    same grid, and memory does not grow with the span.
    An empty batch gives an empty array, as for :class:`LabFrameRunner`.
    """

    chi = 0.0
    gamma = TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA

    def __init__(self, omega: float, tau: float):
        for name, value in (("omega", omega), ("tau", tau)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        self.omega = omega
        self.tau = tau

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

    def run_batch(self, stims, sizes=None) -> np.ndarray:
        """Transition probabilities for consecutive groups of stimuli, each on its own grid.

        ``sizes`` cuts ``stims`` into consecutive groups of those sizes; the
        default is one group.  A group is stepped on the grid it would get
        alone: ``dt`` is the smallest :meth:`_step` of its stimuli, and each
        half takes ``n = ceil((tau/2)/dt)`` steps of ``h = (tau/2)/n``.
        """
        bounds = _group_bounds(len(stims), sizes)
        if len(stims) == 0:
            return np.empty(0)
        half = self.tau / 2  # tau - tau/2 == tau/2 exactly, so both halves share n and h
        n_steps = np.empty(len(stims), dtype=np.int64)
        h_steps = np.empty(len(stims))
        for a, b in bounds:
            if b > a:
                n = max(1, int(math.ceil(half / min(self._step(s) for s in stims[a:b]))))
                n_steps[a:b], h_steps[a:b] = n, half / n
        # longest runs first, so the runs still stepping are always a prefix
        order = np.argsort(-n_steps, kind="stable")
        n_steps, h_steps = n_steps[order], h_steps[order]
        field = labframe.stimulus_field([stims[k] for k in order])
        psi0 = np.ones(len(stims), dtype=complex)
        psi1 = np.zeros(len(stims), dtype=complex)
        for t_a, wx, wy in ((0.0, 0.0, self.omega), (half, self.omega, 0.0)):
            j0 = 0
            while j0 < n_steps[0]:
                m = int(np.count_nonzero(n_steps > j0))
                j1 = min(int(n_steps[m - 1]), j0 + max(1, _BLOCK_ENTRIES // m))
                h = h_steps[:m]
                tm = t_a + (np.arange(j0, j1) + 0.5) * h[:, None]
                dw = self.gamma * np.ascontiguousarray(field(tm).T)
                u00, u01, u10, u11 = spinlin.su2_propagator(wx, wy, dw, h)
                a0, a1 = psi0[:m], psi1[:m]
                for j in range(j1 - j0):
                    a0, a1 = u00[j] * a0 + u01[j] * a1, u10[j] * a0 + u11[j] * a1
                psi0[:m], psi1[:m] = a0, a1
                j0 = j1
        p = np.empty(len(stims))
        p[order] = 1.0 - np.abs(psi0) ** 2
        return p

    def probe_responses(self, probes, dc: Stimulus) -> tuple[np.ndarray, float]:
        """Probability changes caused by each probe and by the constant stimulus ``dc``.

        One :meth:`run_batch` call of two groups: the probes with a
        reference run, and ``dc`` with a reference run on its own grid.
        """
        probes = list(probes)
        p = self.run_batch(probes + [None, dc, None], [len(probes) + 1, 2])
        return p[:-3] - p[-3], float(p[-2] - p[-1])


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

    def run_batch(self, stims, sizes=None) -> np.ndarray:
        """Transition probabilities, one ``run_protocol_batch`` per group of ``sizes`` runs."""
        return np.concatenate([np.empty(0)] + [
            labframe.run_protocol_batch(self.model, stims[a:b], self.protocol)
            for a, b in _group_bounds(len(stims), sizes)])

    def probe_responses(self, probes, dc: Stimulus) -> tuple[np.ndarray, float]:
        """First-order probability change caused by each probe, and the change caused by ``dc``.

        The probes' changes are the exact linear response of the integrator
        (:func:`~qslsense.labframe.linear_response`): one reference run and
        its adjoint, on the grid the probe batch would use, for any number
        of probes.  ``dc`` is run with a reference run.
        """
        p = self.run_batch([dc, None])
        return (labframe.linear_response(self.model, list(probes), self.protocol),
                float(p[0] - p[1]))


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

    The probe and DC responses come from ``sim.probe_responses``.  On a
    :class:`LabFrameRunner` they are the integrator's exact linear
    response, so ``values`` is the probe field at the step midpoints
    contracted with the kernel ``G_n = dp/db(t_n)``, over ``gamma * area``,
    and no probe run is made.  On a :class:`RotatingFrameRunner` the probes
    are run.
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
    area = stims[0].area()
    amp_dc = 1e-3 / (sim.gamma * sim.tau)
    dp, dp_dc = sim.probe_responses(stims, Stimulus.constant(amp_dc))
    values = dp / (sim.gamma * area)
    shape_area = 2.0 * (1.0 - math.cos(alpha)) / sim.omega
    norm = dp_dc / (sim.gamma * amp_dc * shape_area)
    return KernelEstimate(times=t_grid, values=values, tau=sim.tau,
                          omega=sim.omega, normalization=norm)


def bode_response(sim, omega_grid, amplitude: float) -> BodeSeries:
    """Frequency response by delay-sweeping a sinusoidal stimulus and sine-fitting dp.

    For each frequency the stimulus delay is stepped over one period in 10
    steps, the probability change is fit to a sinusoid in the delay, and
    |amplitude| is normalized to the DC (constant stimulus) response.  The
    w = 0 gain is 1 by definition.  Points whose fit residual exceeds
    ``0.05 * max(|A|, 0.05 |dp_dc|)`` are flagged, not dropped.  The DC
    pair and every frequency's 10 delays go to ``sim.run_batch`` as one
    call, one group each, so each group keeps its own time grid.  A sweep
    of more than :data:`_SWEEP_FREQUENCIES` nonzero frequencies takes one
    such call per that many, each with the DC pair again (the same bits).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(omega_grid < 0):
        raise ValueError("frequencies must be >= 0")
    gains = np.ones(len(omega_grid))
    flags = np.zeros(len(omega_grid), dtype=bool)
    swept = np.flatnonzero(omega_grid)
    # at least one call, which measures the DC pair
    for c0 in range(0, max(len(swept), 1), _SWEEP_FREQUENCIES):
        chunk = [(i, omega_grid[i], np.arange(10) / 10 * TWO_PI / omega_grid[i])
                 for i in swept[c0:c0 + _SWEEP_FREQUENCIES]]
        stims = [Stimulus.constant(amplitude), None]
        for _, w, delays in chunk:
            stims.extend(Stimulus.sinusoid(amplitude, w, phase=-w * d) for d in delays)
        p = sim.run_batch(stims, [2] + [10] * len(chunk))
        dp_dc = float(p[0] - p[1])
        p0 = float(p[1])
        if dp_dc == 0.0:
            raise NumericError("DC response vanished; cannot normalize Bode gains")
        for k, (i, w, delays) in enumerate(chunk):
            dp = p[2 + 10 * k:12 + 10 * k] - p0
            amp, _, resid = fit_sine_amplitude(np.column_stack([delays, dp]), w)
            gains[i] = amp / abs(dp_dc)
            flags[i] = resid > 0.05 * max(amp, 0.05 * abs(dp_dc))
    return BodeSeries(frequencies=omega_grid, gains=gains, chi=getattr(sim, "chi", 0.0),
                      flagged=flags)
