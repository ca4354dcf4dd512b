import math

import numpy as np
import pytest

from qslsense import analytic, sequence
from qslsense.sequence import (
    KET0,
    ControlSequence,
    PulseSegment,
    make_bipartite,
    propagate,
    transition_probability,
)

from oracles import make_ramsey_with_delay

TWO_PI = 2 * math.pi


class TestConstruction:
    def test_bipartite_segments(self):
        seq = make_bipartite(1.0, 2.0, detuning=0.1)
        assert len(seq.segments) == 2
        assert seq.segments[0] == PulseSegment(1.0, 1.0, 0.0, 0.1)
        assert seq.segments[1] == PulseSegment(1.0, 1.0, math.pi / 2, 0.1)
        assert seq.total_duration == pytest.approx(2.0)

    def test_degenerate_timeshares(self):
        lo = make_bipartite(1.0, 2.0, timeshare=0.0, phase_jump=0.7)
        hi = make_bipartite(1.0, 2.0, timeshare=1.0, phase_jump=0.7)
        assert len(lo.segments) == 1 and lo.segments[0].phase == 0.7
        assert len(hi.segments) == 1 and hi.segments[0].phase == 0.0

    def test_ramsey_structure(self):
        seq = make_ramsey_with_delay(1.0, 0.5, 3.0, detuning=0.2)
        assert [s.rabi for s in seq.segments] == [1.0, 0.0, 1.0]
        assert seq.segments[1].duration == pytest.approx(2.0)
        assert seq.segments[2].phase == pytest.approx(math.pi / 2)

    def test_ramsey_precondition(self):
        with pytest.raises(ValueError):
            make_ramsey_with_delay(1.0, 0.6, 1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            ControlSequence(segments=())

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PulseSegment(-1.0, 1.0)
        with pytest.raises(ValueError):
            PulseSegment(1.0, -1.0)


class TestPropagation:
    def test_trivial_sequence_is_identity(self):
        seq = ControlSequence((PulseSegment(1.0, 0.0, 0.0, 0.0),))
        psi = propagate(seq, KET0)
        assert np.allclose(psi, KET0)

    def test_bias_point(self):
        om = TWO_PI * 10e6
        p = transition_probability(make_bipartite(om, math.pi / om))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_finer_segmentation_oracle(self):
        # splitting every segment 10x must reproduce the same propagation
        rng = np.random.default_rng(9)
        for _ in range(10):
            segs = tuple(PulseSegment(rng.uniform(0.1, 1.0), rng.uniform(0, 2),
                                      rng.uniform(0, TWO_PI), rng.uniform(-1, 1))
                         for _ in range(4))
            fine = tuple(PulseSegment(s.duration / 10, s.rabi, s.phase, s.detuning)
                         for s in segs for _ in range(10))
            a = propagate(ControlSequence(segs), KET0)
            b = propagate(ControlSequence(fine), KET0)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_concatenation_associativity(self):
        rng = np.random.default_rng(1)
        seg_a = tuple(PulseSegment(rng.uniform(0.1, 1), rng.uniform(0, 2),
                                   rng.uniform(0, TWO_PI), rng.uniform(-1, 1))
                      for _ in range(3))
        seg_b = tuple(PulseSegment(rng.uniform(0.1, 1), rng.uniform(0, 2),
                                   rng.uniform(0, TWO_PI), rng.uniform(-1, 1))
                      for _ in range(3))
        joined = propagate(ControlSequence(seg_a + seg_b), KET0)
        staged = propagate(ControlSequence(seg_b), propagate(ControlSequence(seg_a), KET0))
        assert np.max(np.abs(joined - staged)) <= 1e-12

    def test_spin_half_only(self):
        seq = make_bipartite(1.0, 1.0)
        with pytest.raises(ValueError):
            propagate(seq, np.array([1, 0, 0], dtype=complex))


class TestTransitionProbability:
    def test_zero_duration(self):
        seq = ControlSequence((PulseSegment(0.0, 1.0),))
        assert transition_probability(seq) == 0.0

    def test_exact_formula_on_grid(self):
        for om in np.geomspace(1e6, 1e8, 6):
            for ratio in (1e-3, 0.1, 1.0):
                for tau in np.geomspace(1e-8, 1e-6, 6):
                    p_seq = transition_probability(
                        make_bipartite(om, tau, detuning=ratio * om))
                    p_formula = analytic.exact_transition_probability(
                        analytic.BipartiteParams(om, tau, ratio * om))
                    assert abs(p_seq - p_formula) <= 1e-10

    def test_first_order_antisymmetry(self):
        om, tau = 1.0, 2.5
        h = 1e-6
        dp_plus = (transition_probability(make_bipartite(om, tau, detuning=h))
                   - transition_probability(make_bipartite(om, tau)))
        dp_minus = (transition_probability(make_bipartite(om, tau, detuning=-h))
                    - transition_probability(make_bipartite(om, tau)))
        assert dp_plus == pytest.approx(-dp_minus, rel=1e-4)

    def test_first_order_response_magnitude(self):
        # [p(+dw) - p(-dw)] / 2 equals eps(alpha) dw tau / 2 in the linear regime
        for alpha in (0.3, math.pi / 4, 1.2, math.pi / 2):
            om = 1.0
            tau = 2 * alpha
            dw = 1e-4 * om
            dp = (transition_probability(make_bipartite(om, tau, detuning=dw))
                  - transition_probability(make_bipartite(om, tau, detuning=-dw))) / 2
            expect = analytic.phase_scaling_factor(alpha) * dw * tau / 2
            assert abs(dp - expect) <= 1e-6 * abs(expect)


class TestRamseyPhase:
    def test_reduces_to_bipartite_at_zero_delay(self):
        om = 1.0
        t_r = math.pi / 2  # 90 degree pulses
        tau = 2 * t_r
        for dw in (0.0, 0.01, -0.02):
            p_ram = transition_probability(make_ramsey_with_delay(om, t_r, tau, dw))
            p_bip = transition_probability(make_bipartite(om, tau, detuning=dw))
            assert p_ram == pytest.approx(p_bip, abs=1e-12)

    @pytest.mark.parametrize("tau_mult", [2.5, 4.0, 8.0])
    def test_matches_extended_phase_to_first_order(self, tau_mult):
        # 90 degree pulses: dp/d(dw) = -phi_eff/2 per unit detuning
        om = TWO_PI * 10e6
        t_r = (math.pi / 2) / om
        tau = tau_mult * t_r
        h = 1e-6 * om
        fd = (transition_probability(make_ramsey_with_delay(om, t_r, tau, h))
              - transition_probability(make_ramsey_with_delay(om, t_r, tau, -h))) / (2 * h)
        phi_eff_slope = analytic.effective_phase_extended(1.0, tau, t_r)
        assert fd == pytest.approx(-phi_eff_slope / 2, rel=1e-4)

    def test_ideal_ramsey_limit(self):
        # shrink t_r at fixed 90 degree area: slope tends to the full -tau/2
        tau = 1.0
        t_r = 1e-5 * tau
        om = (math.pi / 2) / t_r
        h = 1e-6
        fd = (transition_probability(make_ramsey_with_delay(om, t_r, tau, h))
              - transition_probability(make_ramsey_with_delay(om, t_r, tau, -h))) / (2 * h)
        assert fd == pytest.approx(-tau / 2, rel=1e-4)
