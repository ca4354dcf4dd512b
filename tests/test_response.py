import math

import numpy as np
import pytest

from qslsense import analytic, labframe
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
    numeric_metrics,
)

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
    rot = RotatingFrameRunner(lab.omega, lab.tau, gamma=lab.gamma)
    bs = labframe.b1_for_rabi(lab.omega) / (10 * math.sqrt(2)) * 0.1
    stims = [Stimulus.constant(bs), Stimulus.sinusoid(bs, 1.5 * lab.omega), None]
    p_lab, p_rot = lab.run_batch(stims), rot.run_batch(stims)
    # compare dp: the compressed model's nearby second transition biases the
    # lab reference p by a converged ~0.0119 that the rotating frame lacks
    dp_lab, dp_rot = p_lab[:-1] - p_lab[-1], p_rot[:-1] - p_rot[-1]
    assert dp_lab == pytest.approx(dp_rot, abs=2e-3)
