import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from qslsense import analytic, labframe, response, spinlin
from qslsense.analytic import NumericError
from qslsense.labframe import Stimulus
from qslsense.response import (
    BodeSeries,
    LabFrameRunner,
    RotatingFrameRunner,
    bode_response,
    estimate_kernel,
    fit_sine_amplitude,
)
from qslsense.units import ConfigError

from oracles import kernel_value, numeric_metrics

TWO_PI = 2 * math.pi


def rotating_runner(alpha=math.pi / 2, rabi=TWO_PI * 10e6):
    return RotatingFrameRunner(rabi, 2 * alpha / rabi)


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a refused grid must not reach a run")


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
        with pytest.raises(NumericError):
            fit_sine_amplitude(np.column_stack([t, np.ones_like(t)]), w)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_omega_out_of_range(self, omega):
        # a NaN fails the range check too; an infinite omega would fit
        # sin(inf t), NaN with a RuntimeWarning
        t = np.linspace(0, TWO_PI, 12)
        with pytest.raises(ValueError, match="^omega must be finite and > 0$"):
            fit_sine_amplitude(np.column_stack([t, np.sin(t)]), omega)

    @pytest.mark.parametrize("column, row, bad", [(0, 3, math.nan), (1, 5, math.nan),
                                                  (1, 7, math.inf)], ids=["t", "y", "y_inf"])
    def test_non_finite_sample_rejected(self, column, row, bad):
        t = np.linspace(0, TWO_PI, 12)
        samples = np.column_stack([t, np.sin(t)])
        samples[row, column] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            fit_sine_amplitude(samples, 1.0)


class TestKernelEstimate:
    def test_probe_width_precondition(self):
        sim = rotating_runner()
        with pytest.raises(ValueError):
            estimate_kernel(sim, sim.tau, np.linspace(-sim.tau / 2, sim.tau / 2, 11))

    def test_reproduces_kernel_shape(self):
        sim = rotating_runner()
        tau, om = sim.tau, sim.omega
        probe = analytic.time_resolution_fwhm(tau, 0.5 * om * tau) / 12
        grid = np.linspace(-0.55 * tau, 0.55 * tau, 111)
        values, norm = estimate_kernel(sim, probe, grid)
        shape = kernel_value(grid, om, tau)
        rms = math.sqrt(float(np.mean((values / norm - shape) ** 2)))
        assert rms < 0.02 * shape.max()

    def test_normalization_is_half_sine(self):
        # DC calibration yields -sin(alpha)/2 under the package sign convention
        for alpha in (math.pi / 4, math.pi / 2):
            sim = rotating_runner(alpha)
            probe = analytic.time_resolution_fwhm(sim.tau, alpha) / 12
            _, norm = estimate_kernel(sim, probe, np.linspace(-0.5, 0.5, 21) * sim.tau)
            assert norm == pytest.approx(-math.sin(alpha) / 2, abs=2e-3)

    def test_dc_gain_matches_first_order_sensitivity(self):
        # |c| * kernel area = |eps| tau / 2 within 1 percent
        sim = rotating_runner()
        alpha = 0.5 * sim.omega * sim.tau
        probe = analytic.time_resolution_fwhm(sim.tau, alpha) / 12
        _, norm = estimate_kernel(sim, probe, np.linspace(-0.4, 0.4, 9) * sim.tau)
        area = 2 * (1 - math.cos(alpha)) / sim.omega
        eta = abs(analytic.phase_scaling_factor(alpha)) * sim.tau / 2
        assert abs(norm) * area == pytest.approx(eta, rel=0.01)

    def test_compact_support(self):
        sim = rotating_runner()
        tau = sim.tau
        probe = analytic.time_resolution_fwhm(tau, 0.5 * sim.omega * tau) / 12
        outside = tau / 2 + 4 * probe
        values, norm = estimate_kernel(sim, probe, np.array([-outside, outside]))
        peak = abs(norm)  # kernel peak is sin(alpha) * |c|
        assert np.max(np.abs(values)) < 1e-3 * peak

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
            values, norms[chi] = estimate_kernel(sim, probe, grid * sim.tau)
            shapes[chi] = values / norms[chi]
        dev = np.max(np.abs(shapes[20.0] - shapes[0.0]))
        assert dev < 0.02 * np.max(np.abs(shapes[0.0]))
        assert norms[20.0] / norms[0.0] == pytest.approx(math.cos(math.radians(20.0)),
                                                         rel=1e-3)

    def test_validation(self, monkeypatch):
        # refused before any probe runs, on either runner and pooled
        sims = [rotating_runner(), cli_lab_runner(90.0)]
        fwhm = analytic.time_resolution_fwhm(sims[0].tau, math.pi / 2) / 12
        for sim in sims:
            monkeypatch.setattr(sim, "probe_responses", refuse_to_run)
        monkeypatch.setattr(RotatingFrameRunner, "run_batch", refuse_to_run)
        for grid in ([0.0, 0.0], [1e-9, 0.0]):
            for sim in sims:
                with pytest.raises(ValueError, match="kernel times must be strictly increasing"):
                    estimate_kernel(sim, fwhm, grid)
            with pytest.raises(ValueError, match="kernel times must be strictly increasing"):
                response.estimate_kernels(sims[:1] * 2, [fwhm] * 2, [[0.0, 1e-9], grid])

    @pytest.mark.parametrize("fwhm", [0.0, -1e-10, math.nan, math.inf])
    def test_probe_fwhm_refused_by_name(self, monkeypatch, fwhm):
        sims = [rotating_runner(), cli_lab_runner(90.0)]
        for sim in sims:
            monkeypatch.setattr(sim, "probe_responses", refuse_to_run)
        monkeypatch.setattr(RotatingFrameRunner, "run_batch", refuse_to_run)
        for sim in sims:
            with pytest.raises(ValueError, match="^probe_fwhm must be finite and > 0"):
                estimate_kernel(sim, fwhm, [0.0])
        with pytest.raises(ValueError, match="^probe_fwhm must be finite and > 0"):
            response.estimate_kernels(sims[:1], [fwhm], [[0.0]])

    def test_pooled_lists_of_unequal_length_refused_by_name(self, monkeypatch):
        monkeypatch.setattr(RotatingFrameRunner, "run_batch", refuse_to_run)
        sim = rotating_runner()
        fwhm = analytic.time_resolution_fwhm(sim.tau, math.pi / 2) / 12
        for sims, fwhms, grids in (([sim], [fwhm] * 2, [[0.0]] * 2),
                                   ([sim] * 2, [fwhm], [[0.0]]),
                                   ([sim] * 2, [fwhm] * 2, [[0.0]])):
            with pytest.raises(ValueError, match="^sims, probe_fwhms and t_grids must be of one"):
                response.estimate_kernels(sims, fwhms, grids)

    def test_pooled_runners_must_be_rotating_at_one_rabi_rate(self, monkeypatch):
        # refused by name before any probe is built
        monkeypatch.setattr(response, "kernel_stimuli", refuse_to_run)
        sim = rotating_runner()
        fwhm = analytic.time_resolution_fwhm(sim.tau, math.pi / 2) / 12
        for other in (cli_lab_runner(90.0), RotatingFrameRunner(1.5 * sim.omega, sim.tau)):
            with pytest.raises(ValueError, match="^sims must be RotatingFrameRunners at one Rabi"):
                response.estimate_kernels([sim, other], [fwhm] * 2, [[0.0]] * 2)

    def test_no_pooled_kernels_gives_an_empty_list(self, monkeypatch):
        monkeypatch.setattr(RotatingFrameRunner, "run_batch", refuse_to_run)
        assert response.estimate_kernels([], [], []) == []

    @pytest.mark.parametrize("runner", [rotating_runner, lambda: cli_lab_runner(90.0)],
                             ids=["rotating", "lab"])
    def test_empty_grid_gives_empty_values(self, runner):
        sim = runner()
        fwhm = analytic.time_resolution_fwhm(sim.tau, math.pi / 2) / 12
        values, norm = estimate_kernel(sim, fwhm, [])
        assert values.shape == (0,)
        assert norm == pytest.approx(-0.5, abs=2e-3)  # -sin(alpha)/2, as with probes


class TestBode:
    def test_gains_match_transfer_function(self):
        sim = rotating_runner()
        grid = np.linspace(0.0, 3.0 * sim.omega, 13)
        series = bode_response(sim, grid, 1e-3 / (labframe.GAMMA_E * sim.tau))
        ref = analytic.transfer_value(grid, sim.omega, sim.tau)
        ref = ref / ref[0]
        assert np.max(np.abs(series.gains - ref)) < 0.01
        assert series.gains[0] == 1.0
        assert not series.flagged.any()

    def test_first_root_gain_tiny(self):
        sim = rotating_runner()
        root = analytic.bandwidth_first_root(sim.omega, 0.5 * sim.omega * sim.tau)
        series = bode_response(sim, np.array([0.0, root]), 1e-3 / (labframe.GAMMA_E * sim.tau))
        assert series.gains[1] < 1e-2

    def test_negative_frequency_rejected(self):
        sim = rotating_runner()
        with pytest.raises(ValueError):
            bode_response(sim, np.array([-1.0, 1.0]), 1e-9)

    def test_series_validation(self, monkeypatch):
        # a repeated frequency is refused before any run, on either runner
        for sim in (rotating_runner(), cli_lab_runner(90.0)):
            monkeypatch.setattr(sim, "probe_responses", refuse_to_run)
            with pytest.raises(ValueError, match="frequencies must be strictly increasing"):
                bode_response(sim, np.array([0.0, 1e7, 1e7]), 1e-9)
        with pytest.raises(ValueError, match="gains must be >= 0"):
            BodeSeries(np.array([1.0, 2.0]), np.array([-0.1, 1.0]), np.zeros(2, dtype=bool))

    def test_series_refuses_nan_gains(self):
        with pytest.raises(ValueError, match="gains must be >= 0"):
            BodeSeries([0.0], [math.nan], [False])


class TestNumericMetrics:
    def sampled_kernel(self, alpha, n=4001):
        om = 1.0
        tau = 2 * alpha / om
        t = np.linspace(-0.55 * tau, 0.55 * tau, n)
        return t, kernel_value(t, om, tau), tau, t[1] - t[0]

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_fwhm_matches_closed_form(self, alpha):
        t, values, tau, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(t, values)
        assert abs(rep["t_fwhm"] - analytic.time_resolution_fwhm(tau, alpha)) <= step

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_equivalent_duration_matches_closed_form(self, alpha):
        t, values, tau, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(t, values)
        assert abs(rep["t_square"] - analytic.equivalent_duration(tau, alpha)) <= step

    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 2])
    def test_rise_times_match_cumulative_thresholds(self, alpha):
        # the sampled estimator implements the integral (step-response)
        # definition: tau - (2/Om) arccos((2 cos a + 3)/5) and the 10-90 analogue
        t, values, tau, step = self.sampled_kernel(alpha)
        rep = numeric_metrics(t, values)
        om = 1.0
        t2080 = tau - 2 / om * math.acos((2 * math.cos(alpha) + 3) / 5)
        t1090 = tau - 2 / om * math.acos((math.cos(alpha) + 4) / 5)
        assert abs(rep["t_20_80"] - t2080) <= step
        assert abs(rep["t_10_90"] - t1090) <= step
        assert set(rep) == {"t_fwhm", "t_20_80", "t_10_90", "t_square"}

    def test_square_kernel_widths_coincide(self):
        t = np.linspace(-1.0, 1.0, 2001)
        vals = np.where(np.abs(t) <= 0.5, 1.0, 0.0)
        rep = numeric_metrics(t, vals)
        step = t[1] - t[0]
        assert abs(rep["t_fwhm"] - 1.0) <= 2 * step
        assert abs(rep["t_square"] - 1.0) <= 2 * step

    def test_negative_kernel_sign_normalized(self):
        t, values, _, _ = self.sampled_kernel(math.pi / 2)
        assert numeric_metrics(t, -values)["t_fwhm"] == pytest.approx(
            numeric_metrics(t, values)["t_fwhm"])

    def test_multimodal_rejected_with_candidates(self):
        t = np.linspace(-1, 1, 801)
        vals = np.exp(-((t + 0.5) / 0.1) ** 2) + np.exp(-((t - 0.5) / 0.1) ** 2)
        with pytest.raises(NumericError, match="candidate peaks"):
            numeric_metrics(t, vals)

    def test_unresolved_peak_rejected(self):
        t = np.linspace(-1, 1, 9)
        vals = np.exp(-(t / 0.5) ** 2)
        with pytest.raises(ValueError, match="resolvable"):
            numeric_metrics(t, vals)


def test_lab_runner_agrees_with_rotating_runner():
    lab = LabFrameRunner(labframe.NvModel.resonant(
        TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA, d=TWO_PI * 0.5e9))
    rot = RotatingFrameRunner(lab.omega, lab.tau)
    bs = lab.model.b1 / (10 * math.sqrt(2)) * 0.1
    stims = [Stimulus.constant(bs), Stimulus.sinusoid(bs, 1.5 * lab.omega), None]
    p_lab = labframe.run_protocol_batch(lab.model, stims, lab.protocol)
    p_rot = rot.run_batch(stims)
    # compare dp: the compressed model's nearby second transition biases the
    # lab reference p by a converged ~0.0119 that the rotating frame lacks
    dp_lab, dp_rot = p_lab[:-1] - p_lab[-1], p_rot[:-1] - p_rot[-1]
    assert dp_lab == pytest.approx(dp_rot, abs=2e-3)


def parent_stimulus_value(stim, t):
    """One stimulus's field at the times ``t``, written out per kind."""
    if stim.kind == "gaussian":
        return stim.amplitude * np.exp(
            -4.0 * math.log(2.0) * (t - stim.center) ** 2 / stim.fwhm**2)
    return stim.amplitude * np.sin(stim.frequency * t + stim.phase)


def per_step_probabilities(sim, stims):
    """RotatingFrameRunner.run_batch as one SU(2) factor per time step, run by run (the oracle)."""
    p = []
    for stim in stims:
        dt = sim._step(stim)  # each run on its own grid
        psi0, psi1 = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
        for (t_a, t_b, wx, wy) in ((0.0, sim.tau / 2, 0.0, sim.omega),
                                   (sim.tau / 2, sim.tau, sim.omega, 0.0)):
            n = max(1, int(math.ceil((t_b - t_a) / dt)))
            h = (t_b - t_a) / n
            tm = t_a + (np.arange(n) + 0.5) * h
            dw = (np.zeros(n) if stim is None
                  else labframe.GAMMA_E * parent_stimulus_value(stim, tm))
            for i in range(n):
                u00, u01, u10, u11 = spinlin.su2_propagator(wx, wy, dw[i:i + 1], h)
                psi0, psi1 = u00 * psi0 + u01 * psi1, u10 * psi0 + u11 * psi1
        p.extend((1.0 - np.abs(psi0) ** 2).tolist())
    return np.array(p)


class FixedStepRunner(RotatingFrameRunner):
    """Rotating runner taking exactly ``steps`` steps per pulse window."""

    def __init__(self, omega, tau, steps):
        super().__init__(omega, tau)
        self.steps = steps

    def _step(self, stim):
        return (self.tau / 2) / (self.steps - 0.5)


class ScaledStepRunner(RotatingFrameRunner):
    """Rotating runner whose step is its own rule's divided by ``k``."""

    def __init__(self, omega, tau, k):
        super().__init__(omega, tau)
        self.k = k

    def _step(self, stim):
        return super()._step(stim) / self.k


def mixed_stimuli(sim, n_runs):
    """``n_runs`` stimuli cycling through Gaussian, sinusoid, None and constant."""
    bs = 1e-3 / (labframe.GAMMA_E * sim.tau)
    kinds = [
        lambda k: None,
        lambda k: Stimulus.constant(bs * (1 + 0.1 * k)),
        lambda k: Stimulus.gaussian(3 * bs, sim.tau * (0.2 + 0.05 * k), sim.tau / 7),
        lambda k: Stimulus.sinusoid(bs, sim.omega * (0.3 + 0.4 * k), phase=0.3 * k),
    ]
    return [kinds[(k + 2) % 4](k) for k in range(n_runs)]


class TestRotatingBlocks:
    @pytest.mark.parametrize("block_entries", [response._BLOCK_ENTRIES, 37])
    @pytest.mark.parametrize("n_runs", [1, 2, 11])
    @pytest.mark.parametrize("steps", [7, 64, 32 * 3 + 5, None])
    def test_bit_identical_to_per_step_loop(self, n_runs, steps, block_entries, monkeypatch):
        # fixed step counts and the runner's own step rule, whose runs take
        # several step counts; at 37 entries a pass spans blocks of 37, 18
        # and 3 steps, odd and even, and the prefix shrinks within a pass
        monkeypatch.setattr(response, "_BLOCK_ENTRIES", block_entries)
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
        bs = 1e-3 / (labframe.GAMMA_E * sim.tau)
        stims = [Stimulus.constant(bs), Stimulus.gaussian(bs, sim.tau / 3, sim.tau),
                 None, Stimulus.sinusoid(-bs, 0.7 * sim.omega, phase=1.0)]
        assert len({sim._step(s) for s in stims}) == 1
        batch = sim.run_batch(stims)
        singles = [sim.run_batch([s])[0] for s in stims]
        assert batch.tolist() == singles

    @pytest.mark.parametrize("alpha_deg, measured", [(90.0, 4.97e-7), (45.0, 4.40e-7)])
    def test_kernel_step_error_is_second_order_at_its_measured_size(self, alpha_deg, measured):
        # the 10 MHz kernel's 41 points at h, h/2 and h/4: the gap of
        # successive halvings, relative to the largest k_norm, measured at the
        # default step with ratio 4.0 per halving
        om, alpha = TWO_PI * 10e6, math.radians(alpha_deg)
        tau = 2 * alpha / om
        fwhm = analytic.time_resolution_fwhm(tau, alpha) / 12
        grid = np.linspace(-0.55 * tau, 0.55 * tau, 41)
        kernels = []
        for k in (1, 2, 4):
            values, norm = estimate_kernel(ScaledStepRunner(om, tau, k), fwhm, grid)
            kernels.append(values / norm)
        scale = np.max(np.abs(kernels[-1]))
        coarse, fine = (np.max(np.abs(a - b)) / scale for a, b in zip(kernels, kernels[1:]))
        assert 2.5 <= coarse / fine <= 6.0
        assert measured / 3 <= coarse <= 3 * measured

    def test_empty_batch_is_empty_like_the_lab_runner(self):
        sim = rotating_runner()
        lab = LabFrameRunner(labframe.NvModel.resonant(sim.omega, 0.0))
        for p in (sim.run_batch([]), labframe.run_protocol_batch(lab.model, [], lab.protocol)):
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
            assert field[k].tolist() == labframe.stimulus_field([stim])(t)[0].tolist()
            assert field[k].tolist() == parent_stimulus_value(stim, t).tolist()


@pytest.mark.parametrize("stims", [
    # kinds interleaved, so each kind's runs are gathered
    [Stimulus.sinusoid(2e-4, 3e7, phase=0.4), None,
     Stimulus.gaussian(1e-4, 2e-8, 7e-9), Stimulus.constant(-3e-4),
     Stimulus.gaussian(5e-5, -1e-8, 3e-9), Stimulus.sinusoid(1e-4, 9e7), None],
    # each kind's runs one contiguous range, as the kernel's probes are
    [None] + [Stimulus.gaussian(1e-4 * (1 + k), 1e-8 * k, 5e-9) for k in range(4)]
    + [Stimulus.sinusoid(1e-4, 9e7), Stimulus.constant(-3e-4)],
], ids=["interleaved", "contiguous"])
def test_stimulus_field_per_run_times_for_the_first_runs(stims):
    field = labframe.stimulus_field(stims)
    for k in (0, 1, 3, 5, len(stims)):
        t = np.linspace(-3e-8, 8e-8, 13)[:, None] * (1 + 0.1 * np.arange(k))
        columns = field(t)
        assert columns.shape == (13, k)
        for r in range(k):
            assert columns[:, r].tolist() == field(t[:, r])[r].tolist()


class TestPooledBatch:
    """One run_batch call over runs, each on its own time grid."""

    @staticmethod
    def stimuli(sim):
        bs = 1e-3 / (labframe.GAMMA_E * sim.tau)
        return ([Stimulus.sinusoid(bs, 2.5 * sim.omega, phase=0.3 * k) for k in range(3)]
                + [Stimulus.sinusoid(-bs, 5.0 * sim.omega, phase=1.0), None,
                   Stimulus.constant(bs), None]
                + [Stimulus.sinusoid(bs, 1.5 * sim.omega, phase=-0.2 * k) for k in range(4)]
                + [Stimulus.gaussian(3 * bs, sim.tau * 0.4, sim.tau / 40), None]
                + [Stimulus.sinusoid(bs, 3.7 * sim.omega)] * 2)

    def test_bit_identical_to_separate_batches_and_per_step_loop(self):
        sim = rotating_runner()
        stims = self.stimuli(sim)
        counts = [math.ceil(sim.tau / 2 / sim._step(s)) for s in stims]
        # several step counts, not in sorted order
        assert len(set(counts)) >= 4 and counts != sorted(counts, reverse=True)
        pooled = sim.run_batch(stims).tolist()
        assert pooled == [sim.run_batch([s])[0] for s in stims]
        assert pooled == per_step_probabilities(sim, stims).tolist()

    def test_memory_does_not_grow_with_run_count(self):
        # a block holds at most _BLOCK_ENTRIES = 4096 (steps x runs)
        # entries, 20 steps of 200 runs or 2 steps of 2000, so what grows
        # with the run count is a few per-run arrays and the gathered
        # stimulus parameters, about 270 B per run: the peaks are 0.83 and
        # 1.29 MB
        sim = rotating_runner()
        bs = 1e-3 / (labframe.GAMMA_E * sim.tau)
        peaks = []
        for n_freqs in (20, 200):
            freqs = np.linspace(0.1, 3.3, n_freqs) * sim.omega
            stims = [Stimulus.sinusoid(bs, w, phase=0.1 * k) for w in freqs for k in range(10)]
            tracemalloc.start()
            try:
                sim.run_batch(stims)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20


class TestPooledKernels:
    """estimate_kernels steps several runners' kernels in one run_batch call."""

    @staticmethod
    def fig3b_setup(rabi, n):
        # the CLI's fig3b: four flip angles, probes at fwhm/12 over 1.1 tau
        sims, fwhms, grids = [], [], []
        for deg in (22.5, 45.0, 67.0, 90.0):
            alpha = math.radians(deg)
            sims.append(RotatingFrameRunner(rabi, 2.0 * alpha / rabi))
            fwhms.append(analytic.time_resolution_fwhm(sims[-1].tau, alpha) / 12.0)
            grids.append(np.linspace(-0.55 * sims[-1].tau, 0.55 * sims[-1].tau, n))
        return sims, fwhms, grids

    @staticmethod
    def assert_same_bits(pooled, singles):
        assert len(pooled) == len(singles)
        for (values_a, norm_a), (values_b, norm_b) in zip(pooled, singles):
            assert values_a.tolist() == values_b.tolist()
            assert norm_a == norm_b

    @pytest.mark.parametrize("rabi_mhz, n", [(10.0, 21), (17.0, 5), (6.0, 1)])
    def test_fig3b_angles_equal_single_estimates(self, rabi_mhz, n):
        sims, fwhms, grids = self.fig3b_setup(TWO_PI * rabi_mhz * 1e6, n)
        self.assert_same_bits(response.estimate_kernels(sims, fwhms, grids),
                              [estimate_kernel(*args) for args in zip(sims, fwhms, grids)])

    def test_kernels_take_their_own_runners_step(self):
        sims, fwhms, grids = self.fig3b_setup(TWO_PI * 10e6, 9)
        # a subclass overriding _step rides in the same pass on its own grid
        sims[1] = FixedStepRunner(sims[1].omega, sims[1].tau, 37)
        sims[3] = FixedStepRunner(sims[3].omega, sims[3].tau, 211)
        self.assert_same_bits(response.estimate_kernels(sims, fwhms, grids),
                              [estimate_kernel(*args) for args in zip(sims, fwhms, grids)])

    def test_runners_must_match_the_stimuli_and_the_rabi_rate(self):
        sim = rotating_runner()
        stims = mixed_stimuli(sim, 4)
        other = RotatingFrameRunner(1.5 * sim.omega, sim.tau)
        for runners in ([sim] * 3, [sim] * 5, [sim, sim, other, sim]):
            with pytest.raises(ValueError, match="one runner per stimulus"):
                sim.run_batch(stims, runners)


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
        amp = 1e-3 / (labframe.GAMMA_E * sim.tau)
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
                bode_response(sim, grid, 1e-3 / (labframe.GAMMA_E * sim.tau))
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


def kernel_probes(sim, n):
    """The Gaussian probes :func:`estimate_kernel` steps over ``n`` delays, as the CLI's ``kernel``."""
    alpha = 0.5 * sim.omega * sim.tau
    fwhm = analytic.time_resolution_fwhm(sim.tau, alpha) / 12
    amp = 1e-3 / (labframe.GAMMA_E * fwhm * math.sqrt(math.pi / (4 * math.log(2))))
    return [Stimulus.gaussian(amp, sim.tau / 2 + t, fwhm)
            for t in np.linspace(-0.55, 0.55, n) * sim.tau]


@pytest.mark.parametrize("estimate, says", [
    (lambda sim: estimate_kernel(sim, analytic.time_resolution_fwhm(sim.tau, 0.5 * sim.omega
                                                                     * sim.tau) / 12,
                                 np.linspace(-0.55, 0.55, 4) * sim.tau), "the kernel"),
    (lambda sim: bode_response(sim, np.linspace(0.0, 3.3 * sim.omega, 4),
                               1e-3 / (labframe.GAMMA_E * sim.tau)), "Bode gains"),
], ids=["kernel", "bode"])
def test_lab_dc_response_that_vanishes_is_refused(estimate, says):
    # pulses of 8.2e-20 s, 3e-10 of a carrier period (the CLI refuses any
    # shorter than one period before a run): the DC pair changes p by nothing
    sim = cli_lab_runner(math.degrees(math.pi * 3.44e15 * 1.64e-19), tau=1.64e-19)
    with pytest.raises(NumericError, match=f"DC response vanished; cannot normalize {says}"):
        estimate(sim)


@pytest.mark.parametrize("runner", [RotatingFrameRunner, LabFrameRunner])
def test_probe_responses_take_the_probes_and_the_dc_stimulus_only(runner):
    # the estimators' whole contract with a runner's runs; a second layout
    # of either runner would fork it
    assert list(inspect.signature(runner.probe_responses).parameters) == ["self", "probes", "dc"]


def zero_probe(sim, probes):
    """The kernel's reference probe: its probes' Gaussian at kernel time 0, amplitude 0."""
    return Stimulus.gaussian(0.0, sim.tau / 2, probes[0].fwhm)


class TestReferenceProbe:
    """The kernel's changes are taken against a last probe of zero amplitude."""

    @pytest.mark.parametrize("rabi_mhz, alpha, n", [(10.0, math.pi / 2, 121),
                                                   (10.0, math.pi / 4, 121),
                                                   (10.0, 1e-3, 121), (17.0, math.pi / 2, 241)])
    def test_rotating_values_are_each_probe_against_the_zero_probe(self, rabi_mhz, alpha, n):
        # the zero probe steps on the probes' grid with a field row of 0.0; its
        # and each probe's change against the runner's run without a stimulus
        # are exact differences (Sterbenz: the probabilities lie within a
        # factor of 2), so subtracting them is p_i - p_zero rounded once
        sim = rotating_runner(alpha, TWO_PI * rabi_mhz * 1e6)
        probes = kernel_probes(sim, n)
        zero = zero_probe(sim, probes)
        assert sim._step(zero) == sim._step(probes[0])
        p = sim.run_batch(probes + [zero])
        expected = (p[:-1] - p[-1]) / (labframe.GAMMA_E * np.array([s.area() for s in probes]))
        values, _ = estimate_kernel(sim, probes[0].fwhm, np.linspace(-0.55, 0.55, n) * sim.tau)
        assert values.tolist() == expected.tolist()

    def test_lab_zero_probe_changes_nothing(self):
        # 121 probes in chunks of 2 put the zero probe with the last one; it
        # joins no chunk, so that probe's sum keeps its span and its bits
        sim = cli_lab_runner(90.0)
        probes = kernel_probes(sim, 121)
        got = labframe.linear_response(sim.model, probes + [zero_probe(sim, probes)],
                                       sim.protocol)
        assert got[-1] == 0.0
        assert got[:-1].tolist() == labframe.linear_response(sim.model, probes,
                                                             sim.protocol).tolist()


def probe_nonlinearity(sim, n, scale):
    """Largest gap of the one-sided kernel from the central differences of +-probes.

    The kernel's ``n`` probes at ``scale`` times their amplitude, in one
    ``run_batch`` call with their negatives and the zero probe; relative to
    the largest central difference.
    """
    probes = [dataclasses.replace(s, amplitude=scale * s.amplitude) for s in kernel_probes(sim, n)]
    minus = [dataclasses.replace(s, amplitude=-s.amplitude) for s in probes]
    p = sim.run_batch(probes + minus + [zero_probe(sim, probes)])
    central = (p[:n] - p[n:2 * n]) / 2
    return np.max(np.abs(p[:n] - p[-1] - central)) / np.max(np.abs(central))


class TestProbeNonlinearity:
    """The 1e-3 rad probe's own nonlinearity in the rotating kernel (10 MHz, 41 points)."""

    def test_second_order_at_45_degrees_at_its_measured_size(self):
        # second order in the probe phase: 9.74e-5, halved with the amplitude
        sim = rotating_runner(math.pi / 4)
        gap, half = probe_nonlinearity(sim, 41, 1.0), probe_nonlinearity(sim, 41, 0.5)
        assert 9.74e-5 / 3 <= gap <= 3 * 9.74e-5
        assert 1.5 <= gap / half <= 2.5

    def test_vanishes_at_90_degrees_to_rounding(self):
        # the second order vanishes by symmetry; what is left, 4.3e-11, is
        # cancellation rounding (it doubles as the amplitude halves)
        assert probe_nonlinearity(rotating_runner(), 41, 1.0) <= 3 * 4.3e-11


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
        values, norm = estimate_kernel(sim, probe, grid)
        amp = 1e-3 / (labframe.GAMMA_E * probe * math.sqrt(math.pi / (4 * math.log(2))))
        stims = [Stimulus.gaussian(sign * amp, sim.tau / 2 + t, probe)
                 for sign in (1.0, -1.0) for t in grid]
        p = labframe.run_protocol_batch(sim.model, stims, sim.protocol)
        central = (p[:len(grid)] - p[len(grid):]) / 2 / (labframe.GAMMA_E * stims[0].area())
        peak = np.max(np.abs(central))
        assert np.max(np.abs(values - central)) <= 1e-6 * peak
        # the normalization is measured with a one-sided DC stimulus; its
        # second-order term is up to 3e-5 of it on these cases
        amp_dc = 1e-3 / (labframe.GAMMA_E * sim.tau)
        p_dc = labframe.run_protocol_batch(
            sim.model, [Stimulus.constant(amp_dc), Stimulus.constant(-amp_dc)], sim.protocol)
        shape_area = 2 * (1 - math.cos(alpha)) / sim.omega
        dc_norm = (p_dc[0] - p_dc[1]) / 2 / (labframe.GAMMA_E * amp_dc * shape_area)
        assert norm == pytest.approx(dc_norm, rel=1e-4)

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_patched_step_reaches_both_entry_points(self, monkeypatch, chi_deg):
        # perfbench/make_refs.py halves the lab step by patching
        # default_timestep; the adjoint must follow run_protocol_batch onto
        # that grid (2e-7 of the peak apart), while the response on the
        # default grid is 2e-6 of the peak away from it
        sim = cli_lab_runner(90.0, chi_deg)
        probes = kernel_probes(sim, 9)
        plain = labframe.linear_response(sim.model, probes, sim.protocol)
        default_timestep = labframe.default_timestep
        monkeypatch.setattr(labframe, "default_timestep",
                            lambda model, stim=None, factor=100.0:
                            default_timestep(model, stim, 2 * factor))
        minus = [dataclasses.replace(s, amplitude=-s.amplitude) for s in probes]
        p = labframe.run_protocol_batch(sim.model, probes + minus, sim.protocol)
        central = (p[:len(probes)] - p[len(probes):]) / 2
        peak = np.max(np.abs(central))
        got = labframe.linear_response(sim.model, probes, sim.protocol)
        assert np.max(np.abs(got - central)) <= 1e-6 * peak
        assert np.max(np.abs(plain - central)) > 1e-6 * peak

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_matches_central_differences_per_single_step(self, monkeypatch, chi_deg):
        # a Gaussian of FWHM h/50 on a step midpoint is seen by that step
        # alone (its neighbours' midpoints are 50 FWHM away), so each
        # response is one step's G; with 1e-5 rad in the step, the central
        # differences are 6e-11 of the largest one apart from it
        sim = cli_lab_runner(90.0, chi_deg)
        dt = labframe.default_timestep(sim.model)
        monkeypatch.setattr(labframe, "default_timestep",
                            lambda model, stim=None, factor=100.0: dt)
        t, _ = labframe._adjoint_kernel(sim.model, [], sim.protocol, dt)
        h = t[1] - t[0]
        amp = 1e-5 / (labframe.GAMMA_E * h)
        probes = [Stimulus.gaussian(amp, float(t[i]), h / 50)
                  for i in np.linspace(0, len(t) - 1, 9).astype(int)]
        minus = [dataclasses.replace(s, amplitude=-s.amplitude) for s in probes]
        p = labframe.run_protocol_batch(sim.model, probes + minus, sim.protocol)
        central = (p[:len(probes)] - p[len(probes):]) / 2
        got = labframe.linear_response(sim.model, probes, sim.protocol)
        assert np.max(np.abs(got - central)) <= 1.8e-10 * np.max(np.abs(central))

    def test_protocol_with_no_steps_gives_zeros(self):
        # a protocol of no duration takes no step: no stimulus changes p
        sim = cli_lab_runner(90.0)
        stims = kernel_probes(sim, 3) + [Stimulus.constant(1e-6), Stimulus.sinusoid(1e-6, 1e8),
                                         None]
        protocol = labframe.Protocol(())
        p = labframe.run_protocol_batch(sim.model, stims + [None], protocol)
        got = labframe.linear_response(sim.model, stims, protocol)
        assert got.tolist() == (p[:-1] - p[-1]).tolist() == [0.0] * len(stims)

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

    @pytest.mark.parametrize("alpha_deg, chi_deg", [(60.0, 0.0), (90.0, 0.0), (60.0, 45.0),
                                                    (90.0, 45.0)])
    def test_windowed_probes_match_the_full_grid(self, alpha_deg, chi_deg):
        # each probe is summed only near its centre; the full-grid sum of
        # every probe at every step is the reference
        sim = cli_lab_runner(alpha_deg, chi_deg)
        probes = kernel_probes(sim, 121)
        dt = labframe._batch_timestep(sim.model, probes)
        t, g = labframe._adjoint_kernel(sim.model, probes, sim.protocol, dt)
        full = labframe.stimulus_field(probes)(t) @ g
        got = labframe.linear_response(sim.model, probes, sim.protocol)
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))

    def test_probes_are_evaluated_only_near_their_centres(self, monkeypatch):
        sim = cli_lab_runner(30.0, tau=2e-9)
        probes = kernel_probes(sim, 2000)
        dt = labframe._batch_timestep(sim.model, probes)
        steps = len(labframe._adjoint_kernel(sim.model, probes, sim.protocol, dt)[0])
        window = math.ceil(12 * probes[0].fwhm / dt) + 1  # steps within 6 FWHM of a centre
        entries = []
        stimulus_field = labframe.stimulus_field

        def counting_field(stims):
            field = stimulus_field(stims)

            def counted(t):
                values = field(t)
                entries.append(values.size)
                return values
            # the reference run's empty field is not a stimulus
            return counted if any(s is not None for s in stims) else field

        monkeypatch.setattr(labframe, "stimulus_field", counting_field)
        labframe.linear_response(sim.model, probes, sim.protocol)
        # a chunk of neighbouring probes spans their windows and the few steps
        # between their centres; every probe at every step would be twice as many
        assert window < 0.6 * steps
        assert sum(entries) <= 1.05 * len(probes) * window

    def test_no_stimuli_builds_no_block(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(labframe, "_block_products", fail)
        monkeypatch.setattr(labframe, "_block_factors", fail)
        sim = cli_lab_runner(90.0)
        assert labframe.linear_response(sim.model, [], sim.protocol).shape == (0,)


class TestStepLimit:
    """A run of more than labframe.MAX_RUN_STEPS steps is refused, one step over the limit."""

    def test_lab_response_at_and_over_the_limit(self, monkeypatch):
        sim = cli_lab_runner(90.0)
        probes = kernel_probes(sim, 5)
        dt = labframe._batch_timestep(sim.model, probes)
        steps = len(labframe._adjoint_kernel(sim.model, probes, sim.protocol, dt)[0])
        assert steps == 3870
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", steps)
        at_limit = labframe.linear_response(sim.model, probes, sim.protocol)
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", steps - 1)
        with pytest.raises(ConfigError, match=f"a run of {steps} steps .* 'carrier'"):
            labframe.linear_response(sim.model, probes, sim.protocol)
        assert at_limit.shape == (5,)

    def test_rotating_run_at_and_over_the_limit(self, monkeypatch):
        sim = rotating_runner()
        fast = Stimulus.sinusoid(1e-9, 1e3 * sim.omega)
        steps = 2 * math.ceil(sim.tau / 2 / sim._step(fast))
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", steps)
        p = sim.run_batch([None, fast])
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", steps - 1)
        # the slow run fits; the fast one is named
        with pytest.raises(ConfigError, match=f"a run of {steps} steps .* 'stimulus_frequency'"):
            sim.run_batch([None, fast])
        assert p.shape == (2,)

    def test_rotating_step_that_underflows_to_zero_is_refused(self, monkeypatch):
        # 1/fwhm overflows, so the step is 0: refused as inf steps before any is taken
        def fail(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(spinlin, "su2_propagator", fail)
        sim = rotating_runner()
        with pytest.raises(ConfigError, match="a run of inf steps .* 'stimulus_bandwidth'"):
            sim.run_batch([None, Stimulus.gaussian(1e-3, sim.tau / 2, 1e-309)])


def offaxis_runner(chi_deg):
    """The scaled model of the `offaxis` command (transition near 0.75 GHz) at tilt ``chi_deg``."""
    model = labframe.NvModel.resonant(TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
                                      d=TWO_PI * 0.5e9, chi=math.radians(chi_deg))
    return LabFrameRunner(model)


class TestLabBode:
    """The lab Bode gains, from the integrator's adjoint response, against direct runs."""

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_matches_central_differences(self, chi_deg):
        # the fit over 10 delays drops the runs' second-order terms (constant
        # and at 2w in the delay), and the central differences drop them
        # again; what is left is the third-order term, up to 2.1e-6 relative
        sim = offaxis_runner(chi_deg)
        larmor = sim.model.carrier
        grid = np.array([0.0, 0.25 * sim.omega, sim.omega, 2.5 * sim.omega,
                         0.5 * larmor, 0.95 * larmor])
        amp = sim.model.b1 / (10.0 * math.sqrt(2.0)) * 0.02
        series = bode_response(sim, grid, amp)
        dc = Stimulus.constant(amp)
        p_dc = labframe.run_protocol_batch(sim.model, [dc, None], sim.protocol)
        # the DC normalization is still the one-sided pair difference
        assert sim.probe_responses([], dc)[1] == float(p_dc[0] - p_dc[1])
        for w, gain in zip(grid[1:], series.gains[1:]):
            delays = np.arange(10) / 10 * TWO_PI / w
            p = labframe.run_protocol_batch(
                sim.model, [Stimulus.sinusoid(sign * amp, w, phase=-w * d)
                            for sign in (1.0, -1.0) for d in delays], sim.protocol)
            central, _, _ = fit_sine_amplitude(
                np.column_stack([delays, (p[:10] - p[10:]) / 2]), w)
            assert gain == pytest.approx(central / abs(p_dc[0] - p_dc[1]), rel=1e-5)
        assert not series.flagged.any()


    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_grouped_sinusoids_match_each_stimulus_on_the_full_grid(self, chi_deg):
        # the 10 delays of a frequency come from one sine and one cosine sum
        sim = offaxis_runner(chi_deg)
        larmor = sim.model.carrier
        grid = np.concatenate([np.linspace(0.25, 2.5, 11) * sim.omega,
                               np.array([0.5, 0.8, 0.9, 0.95]) * larmor])
        amp = sim.model.b1 / (10.0 * math.sqrt(2.0)) * 0.02
        stims = [Stimulus.sinusoid(amp, w, phase=-w * d)
                 for w in grid for d in np.arange(10) / 10 * TWO_PI / w]
        stims += [Stimulus.constant(amp), None, Stimulus.sinusoid(amp, 0.0, phase=0.3)]
        dt = labframe._batch_timestep(sim.model, stims)
        t, g = labframe._adjoint_kernel(sim.model, stims, sim.protocol, dt)
        full = np.array([labframe.stimulus_field([s])(t)[0] @ g for s in stims])
        got = labframe.linear_response(sim.model, stims, sim.protocol)
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))


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
    (lambda: labframe.NvModel(b0=1e300), "carrier"),
    (lambda: labframe.bipartite_protocol(NAN), "tau"),
    (lambda: LabFrameRunner(labframe.NvModel.resonant(TWO_PI * 10e6, 0.03), NAN), "tau"),
])
def test_non_finite_inputs_rejected_by_name(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        make()
