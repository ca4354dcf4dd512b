import math
import tracemalloc

import numpy as np
import pytest

from qslsense import analytic, labframe, response, spinlin
from qslsense.analytic import NumericError, kernel_value
from qslsense.labframe import Stimulus
from qslsense.response import (
    BodeSeries,
    FitError,
    KernelEstimate,
    LabFrameRunner,
    RotatingFrameRunner,
    bode_response,
    estimate_kernel,
    fit_sine_amplitude,
)

from oracles import numeric_metrics

TWO_PI = 2 * math.pi


def rotating_runner(alpha=math.pi / 2, rabi=TWO_PI * 10e6):
    return RotatingFrameRunner(rabi, 2 * alpha / rabi)


class TestSineFit:
    def test_pure_sinusoid_is_exact(self):
        w = 3.0
        t = np.linspace(0, 2.5 * TWO_PI / w, 40)
        y = 0.7 * np.sin(w * t) + 0.2 * np.cos(w * t)
        amp, phase, resid = fit_sine_amplitude(np.column_stack([t, y]), w)
        assert amp == pytest.approx(math.hypot(0.7, 0.2), abs=1e-12)
        assert phase == pytest.approx(math.atan2(0.2, 0.7), abs=1e-12)
        assert resid <= 1e-12

    def test_zero_samples_give_zero_amplitude(self):
        w = 2.0
        t = np.linspace(0, TWO_PI / w, 12)
        amp, _, _ = fit_sine_amplitude(np.column_stack([t, np.zeros_like(t)]), w)
        assert amp == 0.0

    def test_perturbed_recovery(self):
        rng = np.random.default_rng(4)
        w = 1.0
        t = np.linspace(0, 3 * TWO_PI, 100)
        y = 0.5 * np.sin(w * t) + 1e-6 * rng.normal(size=len(t))
        amp, _, _ = fit_sine_amplitude(np.column_stack([t, y]), w)
        assert amp == pytest.approx(0.5, abs=1e-5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_sine_amplitude(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.5]]), 1.0)

    def test_short_span_rejected(self):
        t = np.linspace(0, 0.3, 10)
        with pytest.raises(ValueError):
            fit_sine_amplitude(np.column_stack([t, np.sin(t)]), 1.0)

    def test_degenerate_design(self):
        w = 1.0
        t = np.arange(8) * TWO_PI / w  # all samples at the same drive phase
        with pytest.raises(FitError):
            fit_sine_amplitude(np.column_stack([t, np.ones_like(t)]), w)


class TestKernelEstimate:
    def test_probe_width_precondition(self):
        sim = rotating_runner()
        with pytest.raises(ValueError):
            estimate_kernel(sim, sim.tau, np.linspace(-sim.tau / 2, sim.tau / 2, 11))

    def test_reproduces_kernel_shape(self):
        sim = rotating_runner()
        tau, om = sim.tau, sim.omega
        probe = analytic.time_resolution_fwhm(tau, sim.alpha) / 12
        grid = np.linspace(-0.55 * tau, 0.55 * tau, 111)
        est = estimate_kernel(sim, probe, grid)
        shape = kernel_value(grid, om, tau)
        rms = math.sqrt(float(np.mean((est.values / est.normalization - shape) ** 2)))
        assert rms < 0.02 * shape.max()

    def test_normalization_is_half_sine(self):
        # DC calibration yields -sin(alpha)/2 under the package sign convention
        for alpha in (math.pi / 4, math.pi / 2):
            sim = rotating_runner(alpha)
            probe = analytic.time_resolution_fwhm(sim.tau, alpha) / 12
            est = estimate_kernel(sim, probe, np.linspace(-0.5, 0.5, 21) * sim.tau)
            assert est.normalization == pytest.approx(-math.sin(alpha) / 2, abs=2e-3)

    def test_dc_gain_matches_first_order_sensitivity(self):
        # |c| * kernel area = |eps| tau / 2 within 1 percent
        sim = rotating_runner()
        probe = analytic.time_resolution_fwhm(sim.tau, sim.alpha) / 12
        est = estimate_kernel(sim, probe, np.linspace(-0.4, 0.4, 9) * sim.tau)
        area = 2 * (1 - math.cos(sim.alpha)) / sim.omega
        eta = analytic.phase_scaling_magnitude(sim.alpha) * sim.tau / 2
        assert abs(est.normalization) * area == pytest.approx(eta, rel=0.01)

    def test_compact_support(self):
        sim = rotating_runner()
        tau = sim.tau
        probe = analytic.time_resolution_fwhm(tau, sim.alpha) / 12
        outside = tau / 2 + 4 * probe
        est = estimate_kernel(sim, probe, np.array([-outside, outside]))
        peak = abs(est.normalization)  # kernel peak is sin(alpha) * |c|
        assert np.max(np.abs(est.values)) < 1e-3 * peak

    def test_offaxis_20deg_kernel_matches_axial(self):
        # the probe's transverse part leaves an edge effect of order
        # gamma B sin(chi) / w_transition (see the response module), so the
        # shapes agree only with transitions far above the probe bandwidth:
        # the lab model of `kernel --backend lab` (D = 2.87 GHz, Zeeman 1 GHz),
        # not the compressed one (D = 0.5 GHz) of the runner comparison below
        grid = np.linspace(-0.55, 0.55, 41)
        shapes, norms = {}, {}
        b0 = 1e9 / labframe.GAMMA_E_CYCLES_PER_TESLA
        for chi in (0.0, 20.0):
            sim = LabFrameRunner(labframe.NvModel.resonant(TWO_PI * 20e6, b0,
                                                           chi=math.radians(chi)))
            probe = analytic.time_resolution_fwhm(sim.tau, math.pi / 2) / 12
            est = estimate_kernel(sim, probe, grid * sim.tau)
            shapes[chi] = est.values / est.normalization
            norms[chi] = est.normalization
        dev = np.max(np.abs(shapes[20.0] - shapes[0.0]))
        assert dev < 0.02 * np.max(np.abs(shapes[0.0]))
        assert norms[20.0] / norms[0.0] == pytest.approx(math.cos(math.radians(20.0)),
                                                         rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelEstimate(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]),
                           tau=1.0, omega=1.0)


class TestBode:
    def test_gains_match_transfer_function(self):
        sim = rotating_runner()
        grid = np.linspace(0.0, 3.0 * sim.omega, 13)
        series = bode_response(sim, grid, 1e-3 / (sim.gamma * sim.tau))
        ref = analytic.transfer_value(grid, sim.omega, sim.tau)
        ref = ref / ref[0]
        assert np.max(np.abs(series.gains - ref)) < 0.01
        assert series.gains[0] == 1.0
        assert not series.flagged.any()

    def test_first_root_gain_tiny(self):
        sim = rotating_runner()
        root = analytic.bandwidth_first_root(sim.omega, sim.alpha)
        series = bode_response(sim, np.array([0.0, root]), 1e-3 / (sim.gamma * sim.tau))
        assert series.gains[1] < 1e-2

    def test_negative_frequency_rejected(self):
        sim = rotating_runner()
        with pytest.raises(ValueError):
            bode_response(sim, np.array([-1.0, 1.0]), 1e-9)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            BodeSeries(frequencies=np.array([1.0, 1.0]), gains=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            BodeSeries(frequencies=np.array([1.0, 2.0]), gains=np.array([-0.1, 1.0]))


class TestNumericMetrics:
    def sampled_kernel(self, alpha, n=4001):
        om = 1.0
        tau = 2 * alpha / om
        t = np.linspace(-0.55 * tau, 0.55 * tau, n)
        return KernelEstimate(times=t, values=kernel_value(t, om, tau),
                              tau=tau, omega=om), t[1] - t[0]

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_fwhm_matches_closed_form(self, alpha):
        est, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(est)
        assert abs(rep.t_fwhm - analytic.time_resolution_fwhm(est.tau, alpha)) <= step

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_equivalent_duration_matches_closed_form(self, alpha):
        est, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(est)
        assert abs(rep.t_square - analytic.equivalent_duration(est.tau, alpha)) <= step

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_rise_times_match_cumulative_thresholds(self, alpha):
        # the sampled estimator implements the integral (step-response)
        # definition: tau - (2/Om) arccos((2 cos a + 3)/5) and the 10-90 analogue
        est, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(est)
        om, tau = est.omega, est.tau
        t2080 = tau - 2 / om * math.acos((2 * math.cos(alpha) + 3) / 5)
        t1090 = tau - 2 / om * math.acos((math.cos(alpha) + 4) / 5)
        assert abs(rep.t_20_80 - t2080) <= step
        assert abs(rep.t_10_90 - t1090) <= step
        assert rep.bw_first_root is None and rep.p0 is None

    def test_square_kernel_widths_coincide(self):
        t = np.linspace(-1.0, 1.0, 2001)
        vals = np.where(np.abs(t) <= 0.5, 1.0, 0.0)
        rep = numeric_metrics(KernelEstimate(times=t, values=vals, tau=2.0, omega=1.0))
        step = t[1] - t[0]
        assert abs(rep.t_fwhm - 1.0) <= 2 * step
        assert abs(rep.t_square - 1.0) <= 2 * step

    def test_negative_kernel_sign_normalized(self):
        est, step = self.sampled_kernel(math.pi / 2)
        flipped = KernelEstimate(times=est.times, values=-est.values,
                                 tau=est.tau, omega=est.omega)
        assert numeric_metrics(flipped).t_fwhm == pytest.approx(
            numeric_metrics(est).t_fwhm)

    def test_multimodal_rejected_with_candidates(self):
        t = np.linspace(-1, 1, 801)
        vals = np.exp(-((t + 0.5) / 0.1) ** 2) + np.exp(-((t - 0.5) / 0.1) ** 2)
        with pytest.raises(NumericError, match="candidate peaks"):
            numeric_metrics(KernelEstimate(times=t, values=vals, tau=2.0, omega=1.0))

    def test_unresolved_peak_rejected(self):
        t = np.linspace(-1, 1, 9)
        vals = np.exp(-(t / 0.5) ** 2)
        with pytest.raises(ValueError, match="resolvable"):
            numeric_metrics(KernelEstimate(times=t, values=vals, tau=2.0, omega=1.0))


def test_lab_runner_agrees_with_rotating_runner():
    lab = LabFrameRunner(labframe.NvModel.resonant(
        TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA, d=TWO_PI * 0.5e9))
    rot = RotatingFrameRunner(lab.omega, lab.tau)
    assert rot.gamma == lab.gamma
    bs = labframe.b1_for_rabi(lab.omega) / (10 * math.sqrt(2)) * 0.1
    stims = [Stimulus.constant(bs), Stimulus.sinusoid(bs, 1.5 * lab.omega), None]
    p_lab, p_rot = lab.run_batch(stims), rot.run_batch(stims)
    # compare dp: the compressed model's nearby second transition biases the
    # lab reference p by a converged ~0.0119 that the rotating frame lacks
    dp_lab, dp_rot = p_lab[:-1] - p_lab[-1], p_rot[:-1] - p_rot[-1]
    assert dp_lab == pytest.approx(dp_rot, abs=2e-3)


def parent_stimulus_value(stim, t):
    """One stimulus's field at the times ``t``, written out per kind."""
    if stim.kind == "constant":
        return np.full_like(t, stim.amplitude)
    if stim.kind == "gaussian":
        return stim.amplitude * np.exp(
            -4.0 * math.log(2.0) * (t - stim.center) ** 2 / stim.fwhm**2)
    return stim.amplitude * np.sin(stim.frequency * t + stim.phase)


def per_step_probabilities(sim, stims):
    """RotatingFrameRunner.run_batch as one SU(2) factor per time step (the oracle)."""
    n_runs = len(stims)
    dt = min(sim._step(s) for s in stims)
    psi0 = np.zeros(n_runs, dtype=complex)
    psi1 = np.zeros(n_runs, dtype=complex)
    psi0[:] = 1.0
    for (t_a, t_b, wx, wy) in ((0.0, sim.tau / 2, 0.0, sim.omega),
                               (sim.tau / 2, sim.tau, sim.omega, 0.0)):
        n = max(1, int(math.ceil((t_b - t_a) / dt)))
        h = (t_b - t_a) / n
        tm = t_a + (np.arange(n) + 0.5) * h
        dw = np.zeros((n_runs, n))
        for k, stim in enumerate(stims):
            if stim is not None:
                dw[k] = sim.gamma * parent_stimulus_value(stim, tm)
        for i in range(n):
            u00, u01, u10, u11 = spinlin.su2_propagator(wx, wy, dw[:, i], h)
            psi0, psi1 = u00 * psi0 + u01 * psi1, u10 * psi0 + u11 * psi1
    return 1.0 - np.abs(psi0) ** 2


class FixedStepRunner(RotatingFrameRunner):
    """Rotating runner taking exactly ``steps`` steps per pulse window."""

    def __init__(self, omega, tau, steps):
        super().__init__(omega, tau)
        self.steps = steps

    def _step(self, stim):
        return (self.tau / 2) / (self.steps - 0.5)


def mixed_stimuli(sim, n_runs):
    """``n_runs`` stimuli cycling through Gaussian, sinusoid, None and constant."""
    bs = 1e-3 / (sim.gamma * sim.tau)
    kinds = [
        lambda k: None,
        lambda k: Stimulus.constant(bs * (1 + 0.1 * k)),
        lambda k: Stimulus.gaussian(3 * bs, sim.tau * (0.2 + 0.05 * k), sim.tau / 7),
        lambda k: Stimulus.sinusoid(bs, sim.omega * (0.3 + 0.4 * k), phase=0.3 * k),
    ]
    return [kinds[(k + 2) % 4](k) for k in range(n_runs)]


class TestRotatingBlocks:
    @pytest.mark.parametrize("n_runs", [1, 2, 11])
    @pytest.mark.parametrize("steps", [7, 64, 32 * 3 + 5, None])
    def test_bit_identical_to_per_step_loop(self, n_runs, steps):
        # step counts below one block, exactly two blocks, 32k + r, and the
        # runner's own step rule
        om = TWO_PI * 10e6
        sim = (rotating_runner(rabi=om) if steps is None
               else FixedStepRunner(om, math.pi / om, steps))
        stims = mixed_stimuli(sim, n_runs)
        p = sim.run_batch(stims)
        assert p.tolist() == per_step_probabilities(sim, stims).tolist()

    def test_batch_bit_identical_to_single_runs(self):
        # every stimulus here leaves the step at tau/100, so a batch shares
        # each single run's time grid
        sim = rotating_runner()
        bs = 1e-3 / (sim.gamma * sim.tau)
        stims = [Stimulus.constant(bs), Stimulus.gaussian(bs, sim.tau / 3, sim.tau),
                 None, Stimulus.sinusoid(-bs, 0.7 * sim.omega, phase=1.0)]
        assert len({sim._step(s) for s in stims}) == 1
        batch = sim.run_batch(stims)
        singles = [sim.run_batch([s])[0] for s in stims]
        assert batch.tolist() == singles

    def test_empty_batch_is_empty_like_the_lab_runner(self):
        sim = rotating_runner()
        lab = LabFrameRunner(labframe.NvModel.resonant(sim.omega, 0.0))
        for runner in (sim, lab):
            p = runner.run_batch([])
            assert p.shape == (0,) and p.dtype == float


def test_stimulus_field_rows_equal_single_stimuli():
    t = np.linspace(-3e-8, 8e-8, 77)
    stims = [Stimulus.sinusoid(2e-4, 3e7, phase=0.4), None,
             Stimulus.gaussian(1e-4, 2e-8, 7e-9), Stimulus.constant(-3e-4),
             Stimulus.gaussian(5e-5, -1e-8, 3e-9), Stimulus.sinusoid(1e-4, 9e7), None]
    field = labframe.stimulus_field(stims)(t)
    assert field.shape == (len(stims), len(t))
    for k, stim in enumerate(stims):
        if stim is None:
            assert not field[k].any()
        else:
            assert field[k].tolist() == stim.value(t).tolist()
            assert field[k].tolist() == parent_stimulus_value(stim, t).tolist()


def test_stimulus_field_per_run_times_for_the_first_runs():
    stims = [Stimulus.sinusoid(2e-4, 3e7, phase=0.4), None,
             Stimulus.gaussian(1e-4, 2e-8, 7e-9), Stimulus.constant(-3e-4),
             Stimulus.gaussian(5e-5, -1e-8, 3e-9), Stimulus.sinusoid(1e-4, 9e7), None]
    field = labframe.stimulus_field(stims)
    for k in (0, 1, 3, 5, len(stims)):
        t = np.linspace(-3e-8, 8e-8, 13) * (1 + 0.1 * np.arange(k))[:, None]
        rows = field(t)
        assert rows.shape == (k, 13)
        for r in range(k):
            assert rows[r].tolist() == field(t[r])[r].tolist()


class TestPooledBatch:
    """One run_batch call over consecutive groups, each on its own time grid."""

    @staticmethod
    def groups(sim):
        bs = 1e-3 / (sim.gamma * sim.tau)
        return [
            [Stimulus.sinusoid(bs, 2.5 * sim.omega, phase=0.3 * k) for k in range(3)],
            [Stimulus.sinusoid(-bs, 5.0 * sim.omega, phase=1.0)],
            [None],
            [Stimulus.constant(bs), None],
            [],
            [Stimulus.sinusoid(bs, 1.5 * sim.omega, phase=-0.2 * k) for k in range(4)],
            [Stimulus.gaussian(3 * bs, sim.tau * 0.4, sim.tau / 40), None],
            [Stimulus.sinusoid(bs, 3.7 * sim.omega)] * 2,
        ]

    def test_bit_identical_to_separate_batches_and_per_step_loop(self):
        sim = rotating_runner()
        groups = self.groups(sim)
        counts = [math.ceil(sim.tau / 2 / min(sim._step(s) for s in g)) for g in groups if g]
        # several step counts, not in sorted order
        assert len(set(counts)) >= 4 and counts != sorted(counts, reverse=True)
        flat = [s for g in groups for s in g]
        pooled = sim.run_batch(flat, [len(g) for g in groups]).tolist()
        assert pooled == [p for g in groups for p in sim.run_batch(g).tolist()]
        assert pooled == [p for g in groups if g for p in per_step_probabilities(sim, g).tolist()]

    def test_default_is_one_group(self):
        sim = rotating_runner()
        stims = mixed_stimuli(sim, 6)
        assert sim.run_batch(stims, [6]).tolist() == sim.run_batch(stims).tolist()

    @pytest.mark.parametrize("sizes", [[2, 2], [3, 1, 2], [5, -1], [6, -1], []])
    def test_sizes_must_be_non_negative_and_cover_the_runs(self, sizes):
        sim = rotating_runner()
        lab = LabFrameRunner(labframe.NvModel.resonant(sim.omega, 0.0))
        stims = mixed_stimuli(sim, 5)
        for runner in (sim, lab):
            with pytest.raises(ValueError, match="group sizes"):
                runner.run_batch(stims, sizes)

    def test_memory_does_not_grow_with_run_count(self):
        # a block holds at most _BLOCK_ENTRIES = 4096 (steps x runs)
        # entries, 20 steps of 200 runs or 2 steps of 2000, so what grows
        # with the run count is a few per-run arrays and the gathered
        # stimulus parameters, about 150 B per run: the peaks are 0.88 and
        # 1.14 MB
        sim = rotating_runner()
        bs = 1e-3 / (sim.gamma * sim.tau)
        peaks = []
        for n_groups in (20, 200):
            freqs = np.linspace(0.1, 3.3, n_groups) * sim.omega
            stims = [Stimulus.sinusoid(bs, w, phase=0.1 * k) for w in freqs for k in range(10)]
            tracemalloc.start()
            try:
                sim.run_batch(stims, [10] * n_groups)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20


def per_frequency_bode(sim, omega_grid, amplitude):
    """bode_response as one run_batch call per frequency (the oracle)."""
    p_dc = sim.run_batch([Stimulus.constant(amplitude), None])
    dp_dc = float(p_dc[0] - p_dc[1])
    p0 = float(p_dc[1])
    gains = np.empty(len(omega_grid))
    flags = np.zeros(len(omega_grid), dtype=bool)
    for i, w in enumerate(omega_grid):
        if w == 0.0:
            gains[i] = 1.0
            continue
        delays = np.arange(10) / 10 * TWO_PI / w
        p = sim.run_batch([Stimulus.sinusoid(amplitude, w, phase=-w * d) for d in delays])
        amp, _, resid = fit_sine_amplitude(np.column_stack([delays, p - p0]), w)
        gains[i] = amp / abs(dp_dc)
        flags[i] = resid > 0.05 * max(amp, 0.05 * abs(dp_dc))
    return gains, flags


class TestPooledBode:
    @pytest.mark.parametrize("alpha_deg, per_call", [(30.0, None), (90.0, None), (90.0, 3)])
    def test_bit_identical_to_per_frequency_loop(self, alpha_deg, per_call, monkeypatch):
        if per_call is not None:
            monkeypatch.setattr(response, "_SWEEP_FREQUENCIES", per_call)
        sim = rotating_runner(alpha=math.radians(alpha_deg))
        grid = np.linspace(0.0, 3.3 * sim.omega, 17)
        amp = 1e-3 / (sim.gamma * sim.tau)
        series = bode_response(sim, grid, amp)
        gains, flags = per_frequency_bode(sim, grid, amp)
        assert series.gains.tolist() == gains.tolist()
        assert series.flagged.tolist() == flags.tolist()

    def test_memory_does_not_grow_with_frequency_count(self, monkeypatch):
        # 10 frequencies per run_batch call: what grows with the grid is its
        # gains, flags and index arrays (1.4 kB), not the stimuli and
        # per-run arrays, which take 0.6 MB more at 200 frequencies than at
        # 20 when the whole sweep is one call
        monkeypatch.setattr(response, "_SWEEP_FREQUENCIES", 10)
        sim = rotating_runner()
        peaks = []
        for n in (20, 200):
            grid = np.linspace(0.0, 3.3 * sim.omega, n)
            tracemalloc.start()
            try:
                bode_response(sim, grid, 1e-3 / (sim.gamma * sim.tau))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**16

    def test_vanishing_dc_response_raises(self):
        sim = rotating_runner()
        with pytest.raises(NumericError, match="DC response vanished"):
            bode_response(sim, np.array([0.0, sim.omega]), 0.0)


def cli_lab_runner(alpha_deg, chi_deg=0.0, tau=10e-9):
    """The model of `kernel --backend lab` (D = 2.87 GHz, Zeeman 1 GHz) at flip angle ``alpha_deg``."""
    b0 = 1e9 / labframe.GAMMA_E_CYCLES_PER_TESLA
    omega = 2 * math.radians(alpha_deg) / tau
    return LabFrameRunner(labframe.NvModel.resonant(omega, b0, chi=math.radians(chi_deg)),
                          tau=tau)


class TestAdjointKernel:
    """The lab kernel, computed by the integrator's adjoint, against direct runs."""

    @pytest.mark.parametrize("alpha_deg, chi_deg", [(60.0, 0.0), (90.0, 0.0), (90.0, 20.0),
                                                    (90.0, 45.0)])
    def test_matches_central_differences(self, alpha_deg, chi_deg):
        # +-probe central differences cancel the probe's second-order term,
        # which the one-sided probe of the direct estimate keeps (up to 8e-5
        # of the peak); what is left is third order, about 1.6e-7
        sim = cli_lab_runner(alpha_deg, chi_deg)
        alpha = 0.5 * sim.omega * sim.tau
        probe = analytic.time_resolution_fwhm(sim.tau, alpha) / 12
        grid = np.linspace(-0.55, 0.55, 9) * sim.tau
        est = estimate_kernel(sim, probe, grid)
        amp = 1e-3 / (sim.gamma * probe * math.sqrt(math.pi / (4 * math.log(2))))
        stims = [Stimulus.gaussian(sign * amp, sim.tau / 2 + t, probe)
                 for sign in (1.0, -1.0) for t in grid]
        p = sim.run_batch(stims)
        central = (p[:len(grid)] - p[len(grid):]) / 2 / (sim.gamma * stims[0].area())
        peak = np.max(np.abs(central))
        assert np.max(np.abs(est.values - central)) <= 1e-6 * peak
        # the normalization is measured with a one-sided DC stimulus; its
        # second-order term is up to 3e-5 of it on these cases
        amp_dc = 1e-3 / (sim.gamma * sim.tau)
        p_dc = sim.run_batch([Stimulus.constant(amp_dc), Stimulus.constant(-amp_dc)])
        shape_area = 2 * (1 - math.cos(alpha)) / sim.omega
        norm = (p_dc[0] - p_dc[1]) / 2 / (sim.gamma * amp_dc * shape_area)
        assert est.normalization == pytest.approx(norm, rel=1e-4)

    def test_memory_does_not_grow_with_probe_count(self):
        sim = cli_lab_runner(30.0, tau=2e-9)
        probe = analytic.time_resolution_fwhm(sim.tau, math.radians(30.0)) / 12
        peaks = []
        for n in (20, 2000):
            grid = np.linspace(-0.55, 0.55, n) * sim.tau
            tracemalloc.start()
            try:
                estimate_kernel(sim, probe, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, name", [
    (lambda: RotatingFrameRunner(NAN, 1e-7), "omega"),
    (lambda: RotatingFrameRunner(INF, 1e-7), "omega"),
    (lambda: RotatingFrameRunner(1e7, NAN), "tau"),
    (lambda: Stimulus.constant(NAN), "amplitude"),
    (lambda: Stimulus.constant(INF), "amplitude"),
    (lambda: Stimulus.gaussian(1e-4, 0.0, fwhm=NAN), "fwhm"),
    (lambda: Stimulus.gaussian(1e-4, INF, fwhm=1e-9), "center"),
    (lambda: Stimulus.sinusoid(1e-4, NAN), "frequency"),
    (lambda: Stimulus.sinusoid(1e-4, 1e8, phase=-INF), "phase"),
    (lambda: labframe.NvModel(d=NAN), "d"),
    (lambda: labframe.NvModel(b1=INF), "b1"),
    (lambda: labframe.NvModel(carrier=NAN), "carrier"),
    (lambda: labframe.bipartite_protocol(NAN), "tau"),
    (lambda: LabFrameRunner(labframe.NvModel.resonant(TWO_PI * 10e6, 0.03), NAN), "tau"),
])
def test_non_finite_inputs_rejected_by_name(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        make()
