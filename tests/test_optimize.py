import math

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

    def test_restricted_theta_grid_is_degenerate(self):
        _, th, eta = scan_timeshare_phase(1.0, 2.0, theta_grid=np.array([0.0]))
        assert th == 0.0
        assert eta == 0.0

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_timeshare_phase(1.0, 2.0, k_grid=np.array([0.0, 1.5]))

    def test_refinement_not_pushed_off_center(self):
        # asymmetric grid around the optimum still refines to 0.5
        k_grid = np.concatenate([np.linspace(0, 0.45, 10), np.linspace(0.52, 1.0, 13)])
        k, _, _ = scan_timeshare_phase(1.0, 2.0, k_grid=k_grid)
        assert abs(k - 0.5) <= 1e-6


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
        surf = sensitivity_surface(1.0, np.array([0.0]), np.array([0.5, 4.0]),
                                   extended=True)
        assert surf.values.shape == (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensitivitySurface(np.array([1.0, 0.5]), np.array([1.0]),
                               np.zeros((2, 1)), np.zeros((2, 2)))
