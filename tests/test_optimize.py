import math
import warnings

import numpy as np
import pytest

from qslsense import analytic
from qslsense.optimize import (
    SensitivitySurface,
    golden_section_max,
    optimal_duration,
    scan_timeshare_phase,
    sensitivity_surface,
    sinusoid_sensitivity,
)

TWO_PI = 2 * math.pi


class TestGoldenSection:
    def test_cosine_peak(self):
        x, fx = golden_section_max(math.cos, -1.0, 1.3, tol=1e-12)
        assert x == pytest.approx(0.0, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_monotone_gap_reduction(self):
        f = lambda x: -(x - 0.3) ** 2
        x, _ = golden_section_max(f, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-6)


class TestScanTimesharePhase:
    @pytest.mark.parametrize("x", [0.6, 1.2, 1.9, 2.5, math.pi])
    def test_optimum_at_half_and_quarter_turn(self, x):
        om = 1.0
        k, th, eta = scan_timeshare_phase(om, x / om)
        assert abs(k - 0.5) <= 1e-6
        assert abs(th - math.pi / 2) <= 1e-6
        assert eta == pytest.approx(
            abs(analytic.bipartite_sensitivity(om, x / om, 0.5, math.pi / 2)), rel=1e-9)


class TestSinusoidSensitivity:
    def test_dc_matches_two_segment_sensitivity(self):
        for alpha in (0.3, math.pi / 4, 1.2, math.pi / 2):
            om = 1.0
            tau = 2 * alpha
            dc = sinusoid_sensitivity(0.0, om, tau)
            assert dc == pytest.approx(
                abs(analytic.bipartite_sensitivity(om, tau, 0.5, math.pi / 2)), rel=1e-12)

    def test_amplitude_scaling_invariance_of_argmax(self):
        # objective is linear in the stimulus: scaling cannot move the optimum
        om = 1.0
        w = 2.0
        t1, _ = optimal_duration(w, om)
        taus = np.linspace(0.01 * math.pi, math.pi, 300)
        vals = np.array([sinusoid_sensitivity(w, om, t) for t in taus])
        assert abs(taus[np.argmax(vals)] - t1) <= taus[1] - taus[0]
        assert abs(taus[np.argmax(3.7 * vals)] - t1) <= taus[1] - taus[0]


class TestOptimalDuration:
    def test_dc_optimum_at_quarter_turn_boundary(self):
        om = TWO_PI * 10e6
        tau, low_conf = optimal_duration(0.0, om)
        assert not low_conf
        assert tau == pytest.approx(math.pi / om, rel=1e-3)

    def test_at_rabi_frequency_against_dense_scan(self):
        om = 1.0
        tau_star, _ = optimal_duration(om, om)
        taus = np.linspace(math.pi / 1e5, math.pi, 100000)
        vals = np.array([sinusoid_sensitivity(om, om, t) for t in taus])
        assert abs(tau_star - taus[np.argmax(vals)]) <= 2 * (taus[1] - taus[0])

    def test_flat_objective_flagged(self):
        tau, low_conf = optimal_duration(1e200, 1.0)
        assert low_conf
        assert tau == pytest.approx(math.pi / 512, rel=1e-12)  # ties break to smallest tau

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            optimal_duration(-1.0, 1.0)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                optimal_duration(w, TWO_PI * 10e6)

    @pytest.mark.parametrize("om", [0.0, -1.0, math.nan, math.inf])
    def test_rabi_frequency_must_be_finite_and_positive(self, om):
        # before, -1 gave a negative duration, nan a nan and inf a zero one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Rabi frequency"):
                optimal_duration(1.0, om)


def scalar_optimal_duration(omega_signal, omega_rabi):
    """The coarse scan as one scalar sinusoid_sensitivity call per grid point."""
    tau_max = math.pi / omega_rabi
    taus = np.linspace(tau_max / 512, tau_max, 512)
    vals = np.array([sinusoid_sensitivity(omega_signal, omega_rabi, t) for t in taus])
    top = float(vals.max())
    if top <= 0 or (top - float(vals.min())) <= 1e-12 * top:
        return float(taus[int(np.argmax(vals))]), True
    i = int(np.argmax(vals))
    lo = taus[max(i - 1, 0)]
    hi = taus[min(i + 1, len(taus) - 1)]
    tau_star, _ = golden_section_max(
        lambda t: sinusoid_sensitivity(omega_signal, omega_rabi, t), lo, hi)
    return float(tau_star), False


class TestOptimalDurationScalarOracle:
    OM = TWO_PI * 10e6

    # DC, the Rabi rate, the series branch near it, far away, and the
    # overflow guard
    @pytest.mark.parametrize("w_over_om", [0.0, 1.0, 1.0 + 5e-7, 3.0, 1e200 / OM])
    def test_special_frequencies_bit_identical(self, w_over_om):
        w = w_over_om * self.OM
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = optimal_duration(w, self.OM)
        assert got == scalar_optimal_duration(w, self.OM)

    def test_grid_bit_identical(self):
        for w in np.linspace(0.0, 4.0 * self.OM, 41):
            assert optimal_duration(w, self.OM) == scalar_optimal_duration(w, self.OM), w


class TestSurface:
    def test_dc_row_monotone(self):
        om = 1.0
        surf = sensitivity_surface(om, np.array([0.0, 1.0]), np.linspace(0.05, math.pi, 50))
        assert np.all(np.diff(surf.values[0]) > 0)

    def test_ridge_consistent_and_decreasing(self):
        om = 1.0
        wgrid = np.linspace(0.0, 4.0, 17)
        surf = sensitivity_surface(om, wgrid, np.linspace(0.05, math.pi, 60))
        for w, tau_star in surf.ridge:
            direct, _ = optimal_duration(w, om)
            assert abs(tau_star - direct) <= 1e-6
        assert np.all(np.diff(surf.ridge[:, 1]) <= 1e-9)

    def test_row_contains_first_root(self):
        # frequencies above the bandwidth see zero crossings of the response
        om = 1.0
        wgrid = np.array([3.5])
        tgrid = np.linspace(0.05, math.pi, 400)
        surf = sensitivity_surface(om, wgrid, tgrid)
        assert surf.values[0].min() < 1e-3 * surf.values[0].max()

    def test_tau_cap_enforced(self):
        with pytest.raises(ValueError):
            sensitivity_surface(1.0, np.array([0.0]), np.array([0.5, 4.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            SensitivitySurface(np.array([1.0, 0.5]), np.array([1.0]),
                               np.zeros((2, 1)), np.zeros((2, 2)))
