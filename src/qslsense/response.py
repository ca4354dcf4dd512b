"""Numerical extraction of sensing kernels, Bode plots, and kernel metrics.

Two interchangeable protocol runners drive the estimators:

* :class:`RotatingFrameRunner`: the two-pulse sequence for a spin-1/2 probe
  with an arbitrary time-dependent detuning, stepped with exact 2x2
  rotations sampled at interval midpoints.  Fast enough for dense sweeps.
* :class:`LabFrameRunner`: the full spin-1 model of
  :mod:`qslsense.labframe`, for strong-driving and off-axis studies.

The estimators use only this contract of a runner: ``omega`` (Rabi,
rad/s), ``tau`` (s), ``chi`` (rad) and ``probe_responses(probes, dc)``,
the probability changes the probes and a constant (DC) stimulus cause.
Both runners turn a field into a detuning with the one gyromagnetic ratio
:data:`labframe.GAMMA_E`.  Kernel time runs from the sequence midpoint,
tau/2.

The kernel estimator probes the sequence with a narrow Gaussian stepped
along a delay grid and divides the probability change, taken against a
probe of zero amplitude, by the probe area;
the Bode estimator sine-fits the change over 10 delays of a sinusoid.
The rotating runner runs every probe and the DC pair in one
:meth:`RotatingFrameRunner.run_batch` call (a whole Bode sweep), each run
on its own time grid, while the lab runner takes the exact linear
response of its integrator from one reference run and its adjoint
(:func:`qslsense.labframe.linear_response`), so the lab probes cost the
same two passes for any number of probes, and runs the DC pair through
:func:`qslsense.labframe.run_protocol_batch`.  The raw
kernel estimate equals ``c * sin(Om(tau/2 - |t|))`` where the constant
``c`` is calibrated against the DC (constant stimulus) response and returned
as the kernel's ``normalization`` (c = -sin(alpha)/2 under this package's
sign convention, -1/2 at alpha = pi/2); only the kernel's shape is
convention-free.

Off-axis kernels (chi != 0): the probe's transverse part ``sin(chi) Sx``
tilts the spin's quantisation axis by about ge B sin(chi) / w_t, where
w_t is the nearest transition frequency.  The tilt registers at first order
at the sequence edges, where the drive switches on (t = 0) and where readout
projects onto Sz (t = tau).  The measured shape therefore equals the axial
shape, scaled by cos(chi), only while the probe is slow compared with the
spin's transition frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, labframe, spinlin
from .analytic import NumericError
from .labframe import Stimulus
from .units import ConfigError

TWO_PI = 2.0 * math.pi
#: largest (steps x runs) block of SU(2) factors in RotatingFrameRunner.run_batch
#: (one complex factor array is 64 kB; over the rotating commands 2048 took 17% longer,
#: 8192 as long, and 16384 9% longer with 2.3 MB more traced peak)
_BLOCK_ENTRIES = 4096
#: nonzero frequencies per probe_responses call of bode_response; bounds
#: the stimuli and per-run arrays held at once (about 5 kB per frequency)
_SWEEP_FREQUENCIES = 200


@dataclass
class BodeSeries:
    """Gains |A(w)| normalized to the DC response, with per-point quality flags."""

    frequencies: np.ndarray
    gains: np.ndarray
    flagged: np.ndarray

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        if not np.all(self.gains >= 0):
            raise ValueError("gains must be >= 0")


class RotatingFrameRunner:
    """Two-pulse spin-1/2 protocol with a time-dependent detuning stimulus.

    The detuning is ``GAMMA_E * B_stim(t)``; the drive axis is Y on
    [0, tau/2) and X on [tau/2, tau), matching :mod:`qslsense.sequence`.
    Stepping is exact per step (2x2 rotation about the midpoint-sampled
    axis), second order in the stimulus variation.

    ``run_batch`` steps several runs, each on its own time grid (and
    possibly another runner's ``tau``), in one pass.  The runs are
    sorted by step count, longest first, so at step j the runs still
    stepping are a prefix, and only that prefix is updated: no run takes a
    step its own grid does not have.  The stimuli (at per-run step times)
    and the SU(2) factors are evaluated for blocks of at most
    :data:`_BLOCK_ENTRIES` steps x runs (one step if the runs alone exceed
    it), as (steps, runs) arrays, then applied step by step into reused
    buffers.  Every update is elementwise and writes none of its inputs,
    so a run has the same bits in any batch as alone, and memory does not
    grow with the span.  A run of more than
    :data:`labframe.MAX_RUN_STEPS` steps raises
    :class:`~qslsense.units.ConfigError` before any step is taken.
    """

    chi = 0.0

    def __init__(self, omega: float, tau: float):
        for name, value in (("omega", omega), ("tau", tau)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        self.omega = omega
        self.tau = tau

    def _scales(self, stim: Stimulus | None) -> dict[str, float]:
        """The frequency scales (Hz) a run's step resolves, by name."""
        scales = {"rabi": self.omega / TWO_PI}
        if stim is not None:
            scales["stimulus_field"] = labframe.GAMMA_E * abs(stim.amplitude) / TWO_PI
            if stim.kind == "sinusoid":
                scales["stimulus_frequency"] = stim.frequency / TWO_PI
            elif stim.kind == "gaussian":
                scales["stimulus_bandwidth"] = 1.0 / stim.fwhm
        return scales

    def _step(self, stim: Stimulus | None) -> float:
        return min(1.0 / (100.0 * max(self._scales(stim).values())), self.tau / 100.0)

    def run_batch(self, stims, runners=None) -> np.ndarray:
        """Transition probabilities of ``stims``, each run on its own grid.

        ``runners`` gives one runner per stimulus, sharing this one's Rabi
        rate (default this one).  With ``dt`` a run's runner's ``_step`` of
        its stimulus, each half takes ``n = ceil((tau/2)/dt)`` steps of
        ``h = (tau/2)/n``.
        """
        runners = [self] * len(stims) if runners is None else list(runners)
        if len(runners) != len(stims) or any(r.omega != self.omega for r in runners):
            raise ValueError("runners must give one runner per stimulus, at this Rabi rate")
        if len(stims) == 0:
            return np.empty(0)
        n_steps = np.empty(len(stims), dtype=np.int64)
        h_steps, halves = np.empty(len(stims)), np.empty(len(stims))
        for k, (stim, sim) in enumerate(zip(stims, runners)):
            half = sim.tau / 2  # tau - tau/2 == tau/2 exactly, so both halves share n and h
            dt = sim._step(stim)
            n = labframe.step_count(half, dt)
            if 2 * n > labframe.MAX_RUN_STEPS:
                raise labframe.too_many_steps(2 * n, dt, sim._scales(stim))
            n_steps[k], h_steps[k], halves[k] = n, half / n, half
        # longest runs first, so the runs still stepping are always a prefix
        order = np.argsort(-n_steps, kind="stable")
        n_steps, h_steps, halves = n_steps[order], h_steps[order], halves[order]
        field = labframe.stimulus_field([stims[k] for k in order])
        # the state, its next value (ping-pong) and two products, one row each
        buffers = np.zeros((6, len(stims)), dtype=complex)
        buffers[0] = 1.0
        for t_a, wx, wy in ((np.zeros(len(stims)), 0.0, self.omega), (halves, self.omega, 0.0)):
            j0 = 0
            while j0 < n_steps[0]:
                m = int(np.count_nonzero(n_steps > j0))
                j1 = min(int(n_steps[m - 1]), j0 + max(1, _BLOCK_ENTRIES // m))
                h = h_steps[:m]
                tm = t_a[:m] + (np.arange(j0, j1) + 0.5)[:, None] * h
                dw = labframe.GAMMA_E * field(tm)
                a0, a1, b0, b1, x, y = buffers[:, :m]
                for u00, u01, u10, u11 in zip(*spinlin.su2_propagator(wx, wy, dw, h)):
                    np.add(np.multiply(u00, a0, out=x), np.multiply(u01, a1, out=y), out=b0)
                    np.add(np.multiply(u10, a0, out=x), np.multiply(u11, a1, out=y), out=b1)
                    a0, a1, b0, b1 = b0, b1, a0, a1
                buffers[:2, :m] = a0, a1  # already there after an even step count
                j0 = j1
        p = np.empty(len(stims))
        p[order] = 1.0 - np.abs(buffers[0]) ** 2
        return p

    def probe_responses(self, probes, dc: Stimulus) -> tuple[np.ndarray, float]:
        """Probability changes caused by each probe and by the constant stimulus ``dc``.

        One :meth:`run_batch` call of ``(*probes, dc, None)``, each run on
        its own grid; every change is taken against the run without a
        stimulus.
        """
        return _pooled_changes([self], [(list(probes), dc)])[0]


def _pooled_changes(sims, parts) -> list[tuple[np.ndarray, float]]:
    """``(dp, dp_dc)`` of each rotating runner's ``(probes, dc)``, from one ``run_batch`` call.

    A part is the runs ``(*probes, dc, None)`` on its runner, each change taken against None.
    """
    p = sims[0].run_batch([s for probes, dc in parts for s in (*probes, dc, None)],
                          [sim for sim, (probes, dc) in zip(sims, parts)
                           for _ in (*probes, dc, None)])
    ends = np.cumsum([len(probes) + 2 for probes, _ in parts])
    return [(q[:-2] - q[-1], float(q[-2] - q[-1])) for q in np.split(p, ends[:-1])]


class LabFrameRunner:
    """Protocol runner backed by the full spin-1 lab-frame model."""

    def __init__(self, model: labframe.NvModel, tau: float | None = None):
        self.model = model
        self.omega = model.rabi
        if self.omega <= 0:
            raise ValueError("model has no drive (b1 = 0)")
        self.tau = tau if tau is not None else math.pi / self.omega
        self.chi = model.chi
        self.protocol = labframe.bipartite_protocol(self.tau)

    def probe_responses(self, probes, dc: Stimulus) -> tuple[np.ndarray, float]:
        """First-order probability change caused by each probe, and the change caused by ``dc``.

        The probes' changes are the exact linear response of the integrator
        (:func:`~qslsense.labframe.linear_response`): one reference run and
        its adjoint, on the finest grid any probe needs, for any number of
        probes.  ``dc`` is run with a reference run.
        """
        dp = labframe.linear_response(self.model, list(probes), self.protocol)
        p = labframe.run_protocol_batch(self.model, [dc, None], self.protocol)
        return dp, float(p[0] - p[1])


def fit_sine_amplitude(samples, omega: float) -> tuple[float, float, float]:
    """Least-squares fit of (t, y) samples to ``a sin(wt) + b cos(wt)``.

    Returns (amplitude, phase, residual) with amplitude = hypot(a, b), phase
    = atan2(b, a) and residual the RMS misfit.  Needs at least 4 samples
    spanning at least one period.  The design is judged by its 2x2 normal
    matrix ``[[ss, sc], [sc, cc]]`` on a scale-free basis: when
    ``det <= 1e-12 * (ss + cc)**2`` (all samples at the same drive phase,
    say) it is rank-deficient and :class:`~qslsense.analytic.NumericError` is raised.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (t, value)")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and > 0")
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
        raise NumericError("degenerate design: samples do not separate sine and cosine")
    sy, cy = s @ y, c @ y
    a = (cc * sy - sc * cy) / det
    b = (ss * cy - sc * sy) / det
    resid = math.sqrt(float(np.mean((a * s + b * c - y) ** 2)))
    return math.hypot(a, b), math.atan2(b, a), resid


def estimate_kernel(sim, probe_fwhm: float, t_grid) -> tuple[np.ndarray, float]:
    """Sample the sensing kernel by stepping a narrow Gaussian probe along ``t_grid``.

    ``t_grid`` is in kernel time (seconds relative to the sequence center),
    strictly increasing.  The probe must be at least 10x narrower than the
    expected kernel FWHM; its amplitude targets a peak phase of ~1e-3 rad so
    the response stays linear.  Returns ``(values, normalization)``: the
    probability change per unit (detuning amplitude * time), dp / (GAMMA_E *
    probe_area), at each time, and the DC calibration constant, measured
    with a constant stimulus, that divides ``values`` into the kernel shape.

    The changes come from ``sim.probe_responses``: the rotating runner runs
    the probes, the lab runner contracts them with its integrator's kernel.
    Each is taken against a last probe of zero amplitude, which the rotating
    runner steps on the probes' grid.  :func:`kernel_stimuli` and
    :func:`kernel_from_changes` are the halves around that call.
    """
    probes, dc = kernel_stimuli(sim, probe_fwhm, t_grid)
    return kernel_from_changes(sim, probes, dc, *sim.probe_responses(probes, dc))


def estimate_kernels(sims, probe_fwhms, t_grids) -> list[tuple[np.ndarray, float]]:
    """:func:`estimate_kernel` for rotating runners at one Rabi rate, in one ``run_batch`` call.

    Each runner adds the runs of :meth:`RotatingFrameRunner.probe_responses`,
    each on its own grid, so each estimate has the same bits as alone.
    """
    if not len(sims) == len(probe_fwhms) == len(t_grids):
        raise ValueError("sims, probe_fwhms and t_grids must be of one length")
    if any(not isinstance(s, RotatingFrameRunner) or s.omega != sims[0].omega for s in sims):
        raise ValueError("sims must be RotatingFrameRunners at one Rabi rate")
    parts = [kernel_stimuli(*args) for args in zip(sims, probe_fwhms, t_grids)]
    changes = _pooled_changes(sims, parts) if parts else []
    return [kernel_from_changes(sim, probes, dc, *ch)
            for sim, (probes, dc), ch in zip(sims, parts, changes)]


def kernel_stimuli(sim, probe_fwhm: float, t_grid) -> tuple[list[Stimulus], Stimulus]:
    """The probes of :func:`estimate_kernel`, the Gaussians along ``t_grid`` and then the
    reference probe (the same Gaussian at kernel time 0 with amplitude 0), and its DC stimulus."""
    if not (math.isfinite(probe_fwhm) and probe_fwhm > 0):
        raise ValueError(f"probe_fwhm must be finite and > 0, got {probe_fwhm}")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("kernel times must be strictly increasing")
    alpha = 0.5 * sim.omega * sim.tau
    expected = analytic.time_resolution_fwhm(sim.tau, alpha)
    if probe_fwhm > expected / 10.0:
        raise ValueError(
            f"probe fwhm {probe_fwhm:.3e} s too wide: expected kernel fwhm "
            f"{expected:.3e} s requires <= {expected / 10.0:.3e} s")
    amplitude = 1e-3 / (labframe.GAMMA_E * probe_fwhm * labframe.GAUSS_AREA)
    # Python floats, not numpy scalars, as centres: fig3b holds 616 probes at once
    return ([Stimulus.gaussian(amplitude, sim.tau / 2.0 + t, probe_fwhm) for t in t_grid.tolist()]
            + [Stimulus.gaussian(0.0, sim.tau / 2.0, probe_fwhm)],
            Stimulus.constant(1e-3 / (labframe.GAMMA_E * sim.tau)))


def kernel_from_changes(sim, probes, dc: Stimulus, dp, dp_dc: float) -> tuple[np.ndarray, float]:
    """:func:`estimate_kernel`'s ``(values, normalization)`` from ``dp`` and ``dp_dc``,
    each probe's change taken against the last (reference) probe's."""
    if dp_dc == 0.0:
        raise NumericError("DC response vanished; cannot normalize the kernel")
    shape_area = 2.0 * (1.0 - math.cos(0.5 * sim.omega * sim.tau)) / sim.omega
    ge = labframe.GAMMA_E
    values = (dp[:-1] - dp[-1]) / (ge * np.array([p.area() for p in probes[:-1]]))
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel values must be finite")
    return values, dp_dc / (ge * dc.amplitude * shape_area)


def bode_response(sim, omega_grid, amplitude: float) -> BodeSeries:
    """Frequency response by delay-sweeping a sinusoidal stimulus and sine-fitting dp.

    For each frequency the stimulus delay is stepped over one period in 10
    steps, the probability change is fit to a sinusoid in the delay, and
    |amplitude| is normalized to the DC (constant stimulus) response.  The
    w = 0 gain is 1 by definition.  Points whose fit residual exceeds
    ``0.05 * max(|A|, 0.05 |dp_dc|)`` are flagged, not dropped.  A grid
    that is negative or not strictly increasing is refused before any run.

    The changes come from ``sim.probe_responses`` of the 10 delays of
    every frequency: the rotating runner runs them and the DC pair in one
    ``run_batch`` call, each run on its own grid; the lab
    runner runs the DC pair and takes every delay's first-order change
    from one :func:`~qslsense.labframe.linear_response` pass.  These are
    sinusoidal in the delay to rounding, so on the lab runner ``flagged``
    does not detect nonlinearity.  A sweep of more than
    :data:`_SWEEP_FREQUENCIES` nonzero frequencies makes one such call per
    that many, each measuring the DC pair again (the same bits).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(omega_grid < 0):
        raise ValueError("frequencies must be >= 0")
    if np.any(np.diff(omega_grid) <= 0):
        raise ValueError("frequencies must be strictly increasing")
    gains = np.ones(len(omega_grid))
    flags = np.zeros(len(omega_grid), dtype=bool)
    swept, grid = np.flatnonzero(omega_grid), omega_grid.tolist()
    for c0 in range(0, max(len(swept), 1), _SWEEP_FREQUENCIES):  # at least one, for the DC pair
        chunk = [(i, grid[i], (np.arange(10) / 10 * TWO_PI / grid[i]).tolist())
                 for i in swept[c0:c0 + _SWEEP_FREQUENCIES]]
        stims = [Stimulus.sinusoid(amplitude, w, phase=-w * d)
                 for _, w, delays in chunk for d in delays]
        dp, dp_dc = sim.probe_responses(stims, Stimulus.constant(amplitude))
        if dp_dc == 0.0:
            raise NumericError("DC response vanished; cannot normalize Bode gains")
        for k, (i, w, delays) in enumerate(chunk):
            amp, _, resid = fit_sine_amplitude(
                np.column_stack([delays, dp[10 * k:10 * k + 10]]), w)
            gains[i] = amp / abs(dp_dc)
            flags[i] = resid > 0.05 * max(amp, 0.05 * abs(dp_dc))
    return BodeSeries(omega_grid, gains, flags)
