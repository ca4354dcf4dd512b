import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from qslsense import analytic, cli, labframe, spinlin
from qslsense.analytic import NumericError
from qslsense.labframe import (
    NvModel,
    Protocol,
    PulseWindow,
    Stimulus,
    basis_state,
    bipartite_protocol,
    default_timestep,
    run_protocol_batch,
)
from qslsense.units import ConfigError

from oracles import SX1, SZ1, hamiltonian_at, matexp_antihermitian, run_at, simulate_trace

TWO_PI = 2 * math.pi


# axial bias (tesla) of a 1 GHz and a 3.4 GHz Zeeman shift
B0_1GHZ = 1e9 / labframe.GAMMA_E_CYCLES_PER_TESLA
B0_3GHZ4 = 3.4e9 / labframe.GAMMA_E_CYCLES_PER_TESLA


def midpoint_exponential_probability(m, stim, protocol, dt):
    """Oracle integrator: midpoint-sampled ``exp(-i H h)`` steps of :func:`hamiltonian_at`.

    Steps follow the stepper's grid (``ceil(span/dt)`` equal steps per pulse
    window); the protocol's windows must tile [0, duration].
    """
    psi = basis_state(protocol.prep)
    for w in protocol.windows:
        n = math.ceil((w.stop - w.start) / dt)
        h = (w.stop - w.start) / n
        for i in range(n):
            ham = hamiltonian_at(m, stim, True, w.carrier_phase, w.start + (i + 0.5) * h)
            psi = matexp_antihermitian(ham, h) @ psi
    return 1.0 - abs(psi[labframe._BASIS_INDEX[protocol.prep]]) ** 2


def evolve_one(m, stim, protocol, t0, t1, dt, psi):
    """One state evolved over [t0, t1] by the batch stepper."""
    return labframe._evolve_batch(m, [stim], protocol, t0, t1, dt, psi[None, :])[0]


class TestModel:
    def test_defaults(self):
        m = NvModel()
        assert m.d == pytest.approx(TWO_PI * 2.87e9)
        assert labframe.GAMMA_E == pytest.approx(TWO_PI * 28.0345e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            NvModel(d=-1.0)
        with pytest.raises(ValueError):
            NvModel(chi=2.0)

    def test_rabi_frequency_convention(self):
        om = TWO_PI * 10e6
        m = NvModel(b1=math.sqrt(2) * om / (TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA))
        assert m.rabi == pytest.approx(om, rel=1e-12)
        assert NvModel(b1=0.0).rabi == 0.0

    def test_resonant_constructor(self):
        m = NvModel.resonant(TWO_PI * 10e6, 0.1, d=TWO_PI * 0.5e9, chi=0.3)
        assert m.rabi == pytest.approx(TWO_PI * 10e6, rel=1e-12)
        assert m.carrier == m.d + labframe.GAMMA_E * m.b0
        assert (m.d, m.b0, m.chi) == (TWO_PI * 0.5e9, 0.1, 0.3)
        assert [f.name for f in dataclasses.fields(m)] == ["d", "b0", "b1", "chi"]

    def test_resonant_model_has_the_former_values_bit_for_bit(self):
        # b1, the carrier and the Rabi rate as they were computed from a
        # stored gamma_e and carrier: sqrt(2) rabi / ge, D + ge B0, ge B1 / sqrt(2)
        gamma_e = TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA
        for d, b0, chi in itertools.product(
                [TWO_PI * 2.87e9, TWO_PI * 0.5e9, 1.0],
                [0.0, B0_1GHZ, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
                 60 * TWO_PI * 2.87e9 / gamma_e, 40.0],
                [0.0, math.radians(20.0), math.radians(45.0), math.pi / 2]):
            for rabi in (TWO_PI * 1e3, TWO_PI * 10e6, TWO_PI * 20e6, 8.0 * d):
                m = NvModel.resonant(rabi, b0, d=d, chi=chi)
                b1 = math.sqrt(2.0) * rabi / gamma_e
                assert (m.d, m.b0, m.b1, m.chi) == (d, b0, b1, chi)
                assert m.carrier == d + gamma_e * b0
                assert m.rabi == gamma_e * b1 / math.sqrt(2.0)


class TestStimulus:
    @staticmethod
    def value(stim, t):
        return labframe.stimulus_field([stim])(np.array([t]))[0, 0]

    def test_constant(self):
        assert self.value(Stimulus.constant(2e-3), 123.0) == pytest.approx(2e-3)

    def test_gaussian_fwhm(self):
        s = Stimulus.gaussian(1.0, center=0.0, fwhm=2.0)
        assert self.value(s, 1.0) == pytest.approx(0.5)
        assert s.area() == pytest.approx(2.0 * math.sqrt(math.pi / (4 * math.log(2))))
        assert labframe.GAUSS_AREA == math.sqrt(math.pi / (4.0 * math.log(2.0)))

    def test_sinusoid(self):
        s = Stimulus.sinusoid(1.5, frequency=2.0, phase=0.5)
        assert self.value(s, 0.0) == pytest.approx(1.5 * math.sin(0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            Stimulus.gaussian(1.0, 0.0, fwhm=0.0)
        with pytest.raises(ValueError):
            Stimulus("ramp", 1.0)
        with pytest.raises(ValueError):
            Stimulus.constant(1.0).area()

    def test_frozen_without_instance_dict(self):
        s = Stimulus.gaussian(1.0, center=0.0, fwhm=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.amplitude = 2.0
        assert not hasattr(s, "__dict__")


@pytest.mark.parametrize("start, stop, phase, message", [
    (math.nan, 1e-8, 0.0, "start must be finite"),
    (-math.inf, 1e-8, 0.0, "start must be finite"),
    (0.0, math.nan, 0.0, "stop must be finite"),
    (0.0, math.inf, 0.0, "stop must be finite"),
    (0.0, 1e-8, math.nan, "carrier_phase must be finite"),
    (0.0, 1e-8, -math.inf, "carrier_phase must be finite"),
    (2e-8, 1e-8, 0.0, "stop must be >= start"),
])
def test_pulse_window_rejects_bad_edges_by_name(start, stop, phase, message):
    with pytest.raises(ValueError, match=rf"^{message}"):
        PulseWindow(start, stop, phase)


def test_pulse_window_of_zero_width_is_accepted():
    assert PulseWindow(1e-8, 1e-8).stop == 1e-8


@pytest.mark.parametrize("windows, overlap", [
    ([(0.0, 20e-9, 0.0), (10e-9, 30e-9, 1.0)], True),
    ([(10e-9, 30e-9, 1.0), (0.0, 20e-9, 0.0)], True),
    ([(0.0, 30e-9, 0.0), (10e-9, 20e-9, 1.0)], True),
    ([(0.0, 10e-9, 0.0), (0.0, 20e-9, 1.0)], True),
    ([(0.0, 10e-9, 0.0), (10e-9, 20e-9, 1.0)], False),
    ([(20e-9, 30e-9, 0.0), (0.0, 10e-9, 1.0), (10e-9, 15e-9, 0.5)], False),
], ids=["overlap", "overlap-reversed", "nested", "shared-start", "touching", "unsorted"])
def test_overlapping_pulse_windows_are_rejected(windows, overlap):
    windows = [PulseWindow(*w) for w in windows]
    if overlap:
        with pytest.raises(ValueError, match="overlap") as exc:
            Protocol(windows)
        assert all(repr(w) in str(exc.value) for w in windows[:2])
    else:
        assert Protocol(windows).windows == tuple(windows)


class TestHamiltonian:
    def test_static_diagonal(self):
        m = NvModel(b0=0.1)
        h = hamiltonian_at(m, None, False, 0.0, 0.0)
        zeeman = labframe.GAMMA_E * 0.1
        assert np.allclose(h, np.diag([m.d + zeeman, 0.0, m.d - zeeman]))

    def test_axial_stimulus_couples_through_sz(self):
        m = NvModel(b0=0.1, chi=0.0)
        stim = Stimulus.constant(1e-3)
        dh = hamiltonian_at(m, stim, False, 0.0, 0.0) - hamiltonian_at(m, None, False, 0.0, 0.0)
        assert np.allclose(dh, labframe.GAMMA_E * 1e-3 * SZ1)

    def test_transverse_stimulus_couples_through_sx(self):
        m = NvModel(b0=0.1, chi=math.pi / 2)
        stim = Stimulus.constant(1e-3)
        dh = hamiltonian_at(m, stim, False, 0.0, 0.0) - hamiltonian_at(m, None, False, 0.0, 0.0)
        assert np.allclose(dh, labframe.GAMMA_E * 1e-3 * SX1)

    def test_hermitian(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ, chi=0.3)
        h = hamiltonian_at(m, Stimulus.sinusoid(1e-4, 1e8), True, 0.4, 1.7e-9)
        spinlin.check_hermitian(h)


class TestEvolve:
    def test_constant_hamiltonian_matches_matexp(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        protocol = Protocol(windows=(), prep="ms0")  # drive off: H is static
        dt = default_timestep(m, stim)
        span = 2e-9
        psi = evolve_one(m, stim, protocol, 0.0, span, dt, basis_state("ms0"))
        h = hamiltonian_at(m, stim, False, 0.0, 0.0)
        ref = matexp_antihermitian(h, span) @ basis_state("ms0")
        assert np.max(np.abs(psi - ref)) <= 1e-10

    def test_norm_preserved(self):
        m = NvModel.resonant(TWO_PI * 20e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / m.rabi)
        psi = evolve_one(m, None, protocol, 0.0, protocol.duration,
                         default_timestep(m), basis_state("ms0"))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_trimmed_scales_keep_every_step_and_binding_name(self):
        # the carrier D + ge B0 (B0 >= 0) bounds the zero-field splitting D and
        # the Zeeman shift ge B0, and is listed first, so neither of those two
        # former scales could set the step or be the one named
        def former_scales(m, stim):
            ge = labframe.GAMMA_E
            scales = {"carrier": m.carrier / TWO_PI, "zero_field_splitting": m.d / TWO_PI,
                      "axial_zeeman": ge * m.b0 / TWO_PI, "drive_field": ge * m.b1 / TWO_PI}
            if stim is not None:
                scales["stimulus_field"] = ge * abs(stim.amplitude) / TWO_PI
                if stim.kind == "sinusoid":
                    scales["stimulus_frequency"] = stim.frequency / TWO_PI
                elif stim.kind == "gaussian":
                    scales["stimulus_bandwidth"] = 1.0 / stim.fwhm / TWO_PI
            return scales

        stims = (None, Stimulus.constant(0.5), Stimulus.gaussian(1e-4, 5e-9, 1e-12),
                 Stimulus.sinusoid(1e-4, TWO_PI * 1e9))
        named = set()
        for d, b0, b1, chi, stim in itertools.product(
                TWO_PI * np.array([0.5e9, 2.87e9, 10e9]), (0.0, 1e-3, 0.1, 1.0, 40.0),
                (0.0, 1e-4, 0.1), (0.0, math.pi / 4), stims):
            m = NvModel(d=float(d), b0=b0, b1=b1, chi=chi)
            former = former_scales(m, stim)
            assert default_timestep(m, stim) == 1.0 / (100.0 * max(former.values()))
            name = max(former, key=former.get)
            fmax, dt = former[name], default_timestep(m, stim)
            err = labframe.too_many_steps(10**7, dt, labframe.frequency_scales(m, stim))
            assert str(err) == (
                f"a run of 10000000 steps of {dt:.3e} s is more than {labframe.MAX_RUN_STEPS}: "
                f"binding frequency scale '{name}' at {fmax:.3e} Hz")
            named.add(name)
        assert named == {"carrier", "drive_field", "stimulus_field", "stimulus_frequency",
                         "stimulus_bandwidth"}

    def test_second_order_convergence(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        om = m.rabi
        protocol = bipartite_protocol(math.pi / om)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        dt0 = default_timestep(m, stim)
        p = [run_at(m, [stim], protocol, dt0 / f)[0] for f in (1, 2, 4, 8)]
        d1, d2, d3 = abs(p[0] - p[1]), abs(p[1] - p[2]), abs(p[2] - p[3])
        assert d3 < 1e-6          # halving dt changes populations below 1e-6
        assert 2.5 < d1 / d2 < 6.0  # second-order decay of the step error
        assert 2.5 < d2 / d3 < 6.0

    def test_second_order_convergence_off_axis(self):
        # the offaxis command's model at chi = 45 deg, where the stimulus
        # also enters the Sx rotation angle
        m = NvModel.resonant(TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
                             d=TWO_PI * 0.5e9, chi=math.radians(45.0))
        om = m.rabi
        protocol = bipartite_protocol(math.pi / om)
        stim = Stimulus.sinusoid(m.b1 / (10 * math.sqrt(2)), om)
        dt0 = default_timestep(m, stim)
        p = [run_at(m, [stim], protocol, dt0 / f)[0] for f in (1, 2, 4, 8)]
        d1, d2, d3 = abs(p[0] - p[1]), abs(p[1] - p[2]), abs(p[2] - p[3])
        assert d3 < 1e-6
        assert 2.5 < d1 / d2 < 6.0
        assert 2.5 < d2 / d3 < 6.0
        # the default step against an independent dt/4 reference; its error
        # (1.9e-5) is mostly the counter-rotating drive term's
        ref = midpoint_exponential_probability(m, stim, protocol, dt0 / 4)
        assert abs(p[0] - ref) < 3e-5


def sx_rotation_matrix(theta):
    """``exp(-i theta Sx)`` from the stepper's closed-form step unitary with ``P = 1``."""
    one = np.ones(1, dtype=complex)
    return np.array(labframe._step_unitaries(one, one, np.array([theta]))).reshape(3, 3)


class TestStrangStep:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, -math.pi / 3, math.pi, 2.5 * math.pi])
    def test_rotation_matches_matexp(self, theta):
        ref = matexp_antihermitian(theta * SX1, 1.0)
        assert np.max(np.abs(sx_rotation_matrix(theta) - ref)) <= 1e-13

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_one_step_local_error_is_third_order(self, chi_deg):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ, chi=math.radians(chi_deg))
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        protocol = Protocol(windows=(PulseWindow(0.0, 1e-6, 0.3),), prep="ms0")
        psi = np.array([1.0, 1j, -1.0]) / math.sqrt(3)
        h0 = default_timestep(m, stim)
        errors = []
        for h in (h0, h0 / 2):
            step = labframe._evolve_batch(m, [stim], protocol, 0.0, h, h, psi[None, :])[0]
            ham = hamiltonian_at(m, stim, True, 0.3, h / 2)
            errors.append(np.max(np.abs(step - matexp_antihermitian(ham, h) @ psi)))
        assert 5.0 < errors[0] / errors[1] < 11.0


def rotate_sx(cos_t, g, q, plus, zero, minus):
    """``exp(-i theta Sx)`` on the Sz = +1, 0, -1 components, as the per-step stepper wrote it."""
    u = plus + minus
    shift = q * zero - g * u
    return plus + shift, cos_t * zero + q * u, minus + shift


def step_grid(model, stim, protocol, t0, t1, dt):
    """The stepper's grid for one run as (midpoint, h, pulse_on, phase) per step.

    A run with no stimulus or a sinusoid of frequency 0 (a constant) steps a
    driven span [a, b] of at least two carrier periods T, when one period's
    ceil(T/dt) steps fit in one block, as floor((b - a)/T) periods of
    ceil(T/dt) equal steps from a, then the rest of the span; every other
    span is ``ceil(span/dt)`` equal steps.
    """
    periodic = stim is None or (stim.kind == "sinusoid" and stim.frequency == 0)
    period = TWO_PI / model.carrier if periodic else math.inf
    for a, b, on, phase in labframe._spans(protocol, t0, t1):
        pieces = [(a, b, 1)]
        if (on and b - a >= 2 * period
                and math.ceil((a + period - a) / dt) <= labframe._BLOCK_STEPS):
            reps = int((b - a) // period)
            pieces = [(a, a + period, reps), (a + reps * period, b, 1)]
        for a, b, reps in pieces:
            if b - a <= 0:
                continue
            n = max(1, int(math.ceil((b - a) / dt)))
            h = (b - a) / n
            for i in range(reps * n):
                yield a + (i + 0.5) * h, h, on, phase


def per_step_states(model, stims, protocol, t0, t1, dt, psis):
    """Oracle: the Strang split applied one step at a time, as the stepper did before block products."""
    cos_chi, sin_chi = math.cos(model.chi), math.sin(model.chi)
    out = []
    for stim, psi in zip(stims, psis):
        plus, zero, minus = np.asarray(psi, dtype=complex)
        field = labframe.stimulus_field([stim])
        for tm, h, on, phase in step_grid(model, stim, protocol, t0, t1, dt):
            bs = field(np.array([tm]))[0, 0]
            z = labframe.GAMMA_E * (model.b0 + bs * cos_chi)
            e_plus = np.exp(-0.5j * h * (model.d + z))
            e_minus = np.exp(-0.5j * h * (model.d - z))
            drive = labframe.GAMMA_E * model.b1 * math.cos(model.carrier * tm + phase) if on else 0.0
            theta = h * (drive + labframe.GAMMA_E * bs * sin_chi)
            plus, zero, minus = rotate_sx(np.cos(theta), np.sin(0.5 * theta) ** 2,
                                          (-1j / math.sqrt(2.0)) * np.sin(theta),
                                          plus * e_plus, zero, minus * e_minus)
            plus, minus = plus * e_plus, minus * e_minus
        out.append([plus, zero, minus])
    return np.array(out)


def offaxis_model(chi_deg):
    """The offaxis command's model: 20 MHz Rabi rate, D = 0.5 GHz, 0.25 GHz Zeeman shift."""
    return NvModel.resonant(TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
                            d=TWO_PI * 0.5e9, chi=math.radians(chi_deg))


def fig4d_model(rabi_over_d, b0=None):
    """The fig4d command's model at Rabi rate ``rabi_over_d`` D, scaled bias ge B0 = 60 D by default."""
    d = TWO_PI * labframe.D_NV_CYCLES
    if b0 is None:
        b0 = 60 * d / (TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA)
    return NvModel.resonant(rabi_over_d * d, b0)


def mixed_stimuli(m, tau, n_runs):
    """``n_runs`` stimuli cycling constant, Gaussian, sinusoid and None."""
    bs = m.b1 / (10 * math.sqrt(2))
    kinds = [Stimulus.constant(bs), Stimulus.gaussian(-bs, tau / 3, tau / 5),
             Stimulus.sinusoid(bs, 1.3 * m.rabi, phase=0.2), None]
    return [kinds[k % 4] for k in range(n_runs)]


class TestBlockStepper:
    """The block-product stepper against the per-step loop it replaced."""

    @pytest.mark.parametrize("steps", [100, labframe._BLOCK_STEPS, 2500])
    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_matches_per_step_loop(self, chi_deg, steps):
        # a driven window of `steps` steps, then a drive-off span of about
        # steps/2, from a state with all three components occupied
        m = offaxis_model(chi_deg)
        tau = math.pi / m.rabi
        protocol = Protocol(windows=(PulseWindow(0.0, tau, 0.3),), prep="ms0")
        dt = tau / steps * (1 + 1e-9)
        stims = mixed_stimuli(m, tau, 4)
        psis = np.tile(np.array([1.0, 1j, -1.0]) / math.sqrt(3), (4, 1))
        got = labframe._evolve_batch(m, stims, protocol, 0.0, 1.5 * tau, dt, psis)
        want = per_step_states(m, stims, protocol, 0.0, 1.5 * tau, dt, psis)
        assert math.ceil(tau / dt) == steps
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_batch_bit_identical_to_single_runs_across_chunks(self):
        m = offaxis_model(45.0)
        tau = math.pi / m.rabi
        protocol = bipartite_protocol(tau)
        stims = mixed_stimuli(m, tau, 11)
        assert len(stims) > 2 * labframe._CHUNK_RUNS
        dt = min(default_timestep(m, s) for s in stims)
        batch = run_protocol_batch(m, stims, protocol)
        singles = [run_at(m, [s], protocol, dt)[0] for s in stims]
        assert batch.tolist() == singles

    def test_powered_periods_match_per_step_loop(self):
        # fig4d's lowest Rabi rate: a 152.5-period window, so one period's
        # product is squared up to the 128th power (measured gap 5.2e-13)
        m = fig4d_model(0.1)
        tau = math.pi / m.rabi
        protocol = Protocol(windows=(PulseWindow(0.0, tau / 2, 0.3),), prep="ms0")
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), None, Stimulus.constant(-bs)]
        dt = min(default_timestep(m, s) for s in stims)
        psis = np.tile(np.array([1.0, 1j, -1.0]) / math.sqrt(3), (3, 1))
        got = labframe._evolve_batch(m, stims, protocol, 0.0, tau / 2, dt, psis)
        want = per_step_states(m, stims, protocol, 0.0, tau / 2, dt, psis)
        powers = [b[-1] for b in labframe._blocks(m, stims, protocol, 0.0, tau / 2, dt,
                                                  TWO_PI / m.carrier)]
        assert min(powers) == 1 and max(powers) == 152
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_period_longer_than_a_block_matches_per_step_loop(self):
        # 2500 steps per period: a period does not fit in one block, so the
        # 3.5-period window falls back to the plain grid and nothing is powered
        m = offaxis_model(45.0)
        period = TWO_PI / m.carrier
        protocol = Protocol(windows=(PulseWindow(0.0, 3.5 * period, 0.3),), prep="ms0")
        stims = mixed_stimuli(m, 3.5 * period, 4)
        dt = period / 2500 * (1 + 1e-9)
        psis = np.tile(np.array([1.0, 1j, -1.0]) / math.sqrt(3), (4, 1))
        got = labframe._evolve_batch(m, stims, protocol, 0.0, 3.5 * period, dt, psis)
        want = per_step_states(m, stims, protocol, 0.0, 3.5 * period, dt, psis)
        assert math.ceil(period / dt) > 2 * labframe._BLOCK_STEPS
        blocks = labframe._blocks(m, stims, protocol, 0.0, 3.5 * period, dt, period)
        assert [b[-1] for b in blocks] == [1] * len(blocks)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_norm_preserved_over_powered_window(self):
        # fig4d --expensive's lowest Rabi rate: about 980 carrier periods
        m = fig4d_model(0.1, b0=40.0)
        tau = math.pi / m.rabi
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        protocol = Protocol(windows=(PulseWindow(0.0, tau / 2, 0.0),), prep="ms0")
        assert tau / 2 * m.carrier / TWO_PI > 900
        for s in (stim, None):
            psi = evolve_one(m, s, protocol, 0.0, tau / 2, default_timestep(m, stim),
                             basis_state("ms0"))
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "none"])
    def test_powered_grid_against_dt_over_4(self, chi_deg, constant):
        m = offaxis_model(chi_deg)
        protocol = bipartite_protocol(math.pi / m.rabi)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2))) if constant else None
        dt = default_timestep(m, stim)
        p = run_protocol_batch(m, [stim], protocol)[0]
        assert protocol.duration / 2 > 2 * TWO_PI / m.carrier
        assert abs(p - midpoint_exponential_probability(m, stim, protocol, dt / 4)) < 3e-5

    @pytest.mark.parametrize("case", ["drive-off", "short-window"])
    def test_unpowered_spans_keep_the_plain_grid(self, case):
        # a sinusoid of frequency 0 holds the same field but always steps on
        # the plain ceil(span/dt) grid, so the runs must agree bit for bit
        m = offaxis_model(45.0)
        period = TWO_PI / m.carrier
        if case == "drive-off":
            windows = ()
        else:
            windows = (PulseWindow(0.0, 1.99 * period, 0.3),)
        protocol = Protocol(windows=windows, prep="ms0")
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), None]
        plain = [Stimulus.sinusoid(bs, 0.0, math.pi / 2), Stimulus.sinusoid(0.0, 0.0)]
        dt = default_timestep(offaxis_model(45.0), stims[0])
        psis = np.tile(np.array([1.0, 1j, -1.0]) / math.sqrt(3), (2, 1))
        got = labframe._evolve_batch(m, stims, protocol, 0.0, 40 * period, dt, psis)
        want = labframe._evolve_batch(m, plain, protocol, 0.0, 40 * period, dt, psis)
        assert np.array_equal(got, want)

    def test_patched_default_timestep_sets_the_batch_step(self, monkeypatch):
        # perfbench/make_refs.py halves the lab step by patching the module's
        # default_timestep, the one step rule, which run_protocol_batch looks
        # up at call time
        m = offaxis_model(45.0)
        protocol = bipartite_protocol(math.pi / m.rabi)
        stims = mixed_stimuli(m, protocol.duration, 4)
        half = min(default_timestep(m, s) for s in stims) / 2
        plain = run_protocol_batch(m, stims, protocol)
        monkeypatch.setattr(labframe, "default_timestep",
                            lambda model, stim=None, factor=100.0:
                            default_timestep(model, stim, 2 * factor))
        patched = run_protocol_batch(m, stims, protocol)
        assert patched.tolist() == run_at(m, stims, protocol, half).tolist()
        assert patched.tolist() != plain.tolist()

    def test_kernel_step_error_is_second_order_at_its_measured_size(self, monkeypatch):
        # the 10 ns, 75 deg CLI lab kernel's probes at dt, dt/2 and dt/4: the
        # gap of successive halvings, relative to the largest response,
        # measured 2.70e-6 at the default step with ratio 4.00 per halving
        m, protocol, _, probes = lab_kernel_case()
        responses = []
        for k in (1, 2, 4):
            monkeypatch.setattr(labframe, "default_timestep",
                                lambda model, stim=None, k=k: default_timestep(model, stim) / k)
            responses.append(labframe.linear_response(m, probes, protocol))
        scale = np.max(np.abs(responses[-1]))
        coarse, fine = (np.max(np.abs(a - b)) / scale for a, b in zip(responses, responses[1:]))
        assert 2.5 <= coarse / fine <= 6.0
        assert 2.70e-6 / 3 <= coarse <= 3 * 2.70e-6


    @pytest.mark.parametrize("command, columns, measured", [
        (lambda: cli.cmd_fig4d(points=3), slice(1, None), 2.71e-5),
        (lambda: cli.cmd_offaxis(points=3), slice(2, 3), 9.66e-6),
    ], ids=["fig4d", "offaxis"])
    def test_command_step_error_is_second_order_at_its_measured_size(
            self, monkeypatch, command, columns, measured):
        # `fig4d --points 3` (its six probabilities) and `offaxis --points 3`
        # (its gains) at dt, dt/2 and dt/4: the gap of successive halvings,
        # relative to the largest value, with ratio 4.00 per halving
        outputs = []
        for k in (1, 2, 4):
            monkeypatch.setattr(labframe, "default_timestep",
                                lambda model, stim=None, k=k: default_timestep(model, stim) / k)
            outputs.append(np.array([row[columns] for row in command()[""][1]], dtype=float))
        scale = np.max(np.abs(outputs[-1]))
        coarse, fine = (np.max(np.abs(a - b)) / scale for a, b in zip(outputs, outputs[1:]))
        assert 2.5 <= coarse / fine <= 6.0
        assert measured / 3 <= coarse <= 3 * measured


class TestRunProtocol:
    def test_selective_pi_pulse_transfers_population(self):
        # resonant pulse of area pi at moderate drive: ms0 -> ms-1 nearly perfectly
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = Protocol(windows=(PulseWindow(0.0, math.pi / m.rabi, 0.0),), prep="ms0")
        psi = evolve_one(m, None, protocol, 0.0, protocol.duration, default_timestep(m),
                         basis_state("ms0"))
        fidelity = abs(psi[labframe._BASIS_INDEX["ms_minus1"]]) ** 2
        assert fidelity > 0.999

    def test_rabi_period_within_one_percent(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        om = m.rabi
        window = PulseWindow(0.0, 1.2 * TWO_PI / om, 0.0)
        protocol = Protocol(windows=(window,), prep="ms0")
        t, pops, _ = simulate_trace(m, None, protocol, n_samples=241)
        j = int(np.argmax(pops[:, 0]))
        # parabolic refinement of the ms-1 population peak
        y0, y1, y2 = pops[j - 1, 0], pops[j, 0], pops[j + 1, 0]
        shift = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
        t_peak = t[j] + shift * (t[1] - t[0])
        assert t_peak == pytest.approx(math.pi / om, rel=0.01)

    def test_no_stimulus_matches_rotating_frame_bias(self):
        m = NvModel.resonant(TWO_PI * 5e6, B0_3GHZ4)
        protocol = bipartite_protocol(math.pi / m.rabi)
        p = run_protocol_batch(m, [None], protocol)[0]
        assert p == pytest.approx(0.5, abs=1e-3)

    def test_rwa_regime_matches_sequence(self):
        # moderate drive, chi = 0: full lab model vs exact rotating-frame result
        m = NvModel.resonant(TWO_PI * 5e6, B0_3GHZ4)
        om = m.rabi
        tau = math.pi / om
        protocol = bipartite_protocol(tau)
        bs = m.b1 / (10 * math.sqrt(2))
        for sign in (1.0, -1.0, 0.0):
            stim = Stimulus.constant(sign * bs) if sign else None
            p_lab = run_protocol_batch(m, [stim], protocol)[0]
            p_ref = analytic.exact_transition_probability(om, tau, sign * labframe.GAMMA_E * bs)
            assert abs(p_lab - p_ref) <= 1e-3

    def test_stimulus_sign_reversal_flips_dp(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / m.rabi)
        bs = m.b1 / (10 * math.sqrt(2))
        p = run_protocol_batch(m, [Stimulus.constant(bs), Stimulus.constant(-bs), None], protocol)
        dp_plus, dp_minus = p[0] - p[2], p[1] - p[2]
        assert dp_plus * dp_minus < 0
        assert abs(dp_plus + dp_minus) <= 2e-3

    def test_batch_bit_identical_to_single_runs(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / m.rabi)
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), Stimulus.constant(-bs), None]
        dt = default_timestep(m, stims[0])
        batch = run_protocol_batch(m, stims, protocol)
        singles = [run_at(m, [s], protocol, dt)[0] for s in stims]
        assert all(batch[i] == singles[i] for i in range(3))

    @pytest.mark.parametrize("tau", [10.0, 1e7])
    def test_long_run_that_loses_its_norm_is_refused(self, tau):
        # one carrier period's rounding, raised to the number of periods: the
        # norm drifts by about 1e-5 at 10 s, and at 1e7 s p would read -1.7e72
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        with pytest.raises(NumericError, match=r"norm drifts by \S+, more than 1e-06"):
            run_protocol_batch(m, [None], bipartite_protocol(tau))


class TestRunStepLimit:
    """Both lab entry points are bounded in labframe._blocks, by the steps it would build."""

    # 10 MHz Rabi rate at 0.03 T: a 3.71 GHz carrier
    MODEL = NvModel.resonant(TWO_PI * 10e6, 0.03)

    def test_step_that_underflows_to_zero_is_refused(self):
        # 1/fwhm overflows, so the default step is 0: refused, not divided by
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="a run of inf steps .* 'stimulus_bandwidth'"):
            run_protocol_batch(self.MODEL, [Stimulus.gaussian(1e-3, 0.0, 1e-309)],
                               bipartite_protocol(1e-7))
        assert time.perf_counter() - start < 1.0

    def test_too_many_steps_refused_before_any_is_built(self):
        # about 1.6e164 steps; under a 1 GB address space a regression fails
        # with MemoryError instead of exhausting the host
        code = textwrap.dedent("""
            import math, resource, time
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            from qslsense.labframe import NvModel, Stimulus, bipartite_protocol, run_protocol_batch
            from qslsense.units import ConfigError
            model = NvModel.resonant(2 * math.pi * 10e6, 0.03)
            start = time.perf_counter()
            try:
                run_protocol_batch(model, [Stimulus.gaussian(1e-3, 0.0, 1e-170)],
                                   bipartite_protocol(1e-7))
            except ConfigError as exc:
                print(time.perf_counter() - start, exc)
        """)
        src = str(Path(labframe.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                             timeout=120)
        assert res.returncode == 0, res.stderr[-1000:]
        elapsed, message = res.stdout.split(" ", 1)
        assert float(elapsed) < 1.0
        assert re.match(r"a run of 1.59e\+164 steps .* 'stimulus_bandwidth'", message)

    def test_long_constant_run_builds_a_few_hundred_steps(self):
        # 200 us is 7.4e7 steps on the plain grid, but a constant stimulus steps
        # powered carrier periods, and the empty plain group is not counted
        stim = Stimulus.constant(1e-6)
        protocol = bipartite_protocol(200e-6)
        dt = default_timestep(self.MODEL, stim)
        blocks = labframe._blocks(self.MODEL, [stim], protocol, 0.0, protocol.duration, dt,
                                  TWO_PI / self.MODEL.carrier)
        assert sum(b[5] - b[4] for b in blocks) < 400
        assert protocol.duration / dt > 70 * labframe.MAX_RUN_STEPS
        p = run_protocol_batch(self.MODEL, [stim, None], protocol)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_powered_run_at_and_over_the_limit(self, monkeypatch):
        m = fig4d_model(0.1)
        protocol = bipartite_protocol(math.pi / m.rabi)
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), None, Stimulus.constant(-bs)]
        dt = labframe._batch_timestep(m, stims)
        blocks = labframe._blocks(m, stims, protocol, 0.0, protocol.duration, dt,
                                  TWO_PI / m.carrier)
        built = sum(b[5] - b[4] for b in blocks)
        assert max(b[-1] for b in blocks) > 1  # carrier periods are powered
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", built)
        at_limit = run_protocol_batch(m, stims, protocol)
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", built - 1)
        with pytest.raises(ConfigError, match=f"a run of {built} steps .* 'carrier'"):
            run_protocol_batch(m, stims, protocol)
        monkeypatch.undo()
        assert at_limit.tolist() == run_protocol_batch(m, stims, protocol).tolist()


def fig4d_case():
    """fig4d's lowest Rabi rate, 0.1 D, whose carrier periods are powered."""
    m = fig4d_model(0.1)
    bs = m.b1 / (10 * math.sqrt(2))
    stims = [Stimulus.constant(bs), Stimulus.constant(-bs), None]
    return m, bipartite_protocol(math.pi / m.rabi), stims, stims


def offaxis_case():
    """Eleven mixed runs on the offaxis model at chi = 45 deg, four chunks."""
    m = offaxis_model(45.0)
    stims = mixed_stimuli(m, math.pi / m.rabi, 11)
    return m, bipartite_protocol(math.pi / m.rabi), stims, stims


def lab_kernel_case():
    """The lab_kernel workload's 10 ns CLI lab kernel at 75 deg: its DC pair and 121 probes."""
    tau, alpha = 10e-9, math.radians(75.0)
    m = NvModel.resonant(2 * alpha / tau, B0_1GHZ)
    fwhm = analytic.time_resolution_fwhm(tau, alpha) / 12
    amp = 1e-3 / (labframe.GAMMA_E * fwhm * labframe.GAUSS_AREA)
    probes = [Stimulus.gaussian(amp, tau / 2 + t, fwhm)
              for t in np.linspace(-0.55, 0.55, 121) * tau]
    return m, bipartite_protocol(tau), [Stimulus.constant(1e-3 / (labframe.GAMMA_E * tau)),
                                        None], probes


class TestGroupedTrees:
    """Consecutive blocks of the same runs share one product tree (labframe._groups)."""

    @staticmethod
    def record_trees(monkeypatch):
        """The (positions, blocks, runs) shape of every product tree built from now on."""
        shapes, product_tree = [], labframe._product_tree

        def recording(us):
            shapes.append(us[0].shape)
            return product_tree(us)

        monkeypatch.setattr(labframe, "_product_tree", recording)
        return shapes

    @pytest.mark.parametrize("case", [fig4d_case, offaxis_case, lab_kernel_case],
                             ids=["fig4d-0.1D", "offaxis-45deg-11-runs", "lab-kernel-10ns"])
    def test_one_block_per_tree_gives_the_same_bits(self, monkeypatch, case):
        m, protocol, runs, responses = case()
        shapes = self.record_trees(monkeypatch)

        def both():
            return (run_protocol_batch(m, runs, protocol).tolist(),
                    labframe.linear_response(m, responses, protocol).tolist())

        grouped, trees = both(), len(shapes)
        assert max(s[1] for s in shapes) > 1
        monkeypatch.setattr(labframe, "_TREE_ENTRIES", 1)  # a tree holds one block
        assert both() == grouped
        assert all(s[1] == 1 for s in shapes[trees:])
        assert len(shapes) - trees > trees

    @pytest.mark.parametrize("argv, shapes", [
        # the adjoint's two passes of 2 trees of 2 blocks, then the DC pair
        (["kernel", "--backend", "lab", "--tau", "10ns", "--alpha", "75deg", "--points", "121"],
         [(1024, 2, 1)] * 4 + [(128, 4, 2)]),
        # one tree of the 3 runs' 4 blocks per prep
        (["fig4d", "--points", "1"], [(128, 4, 3)] * 2),
        # per chi: the adjoint's two passes of one tree each, then the DC pair
        (["offaxis", "--points", "1"], ([(1024, 2, 1)] * 2 + [(128, 4, 2)]) * 3),
    ], ids=["lab-kernel-10ns", "fig4d", "offaxis"])
    def test_trees_per_pass(self, tmp_path, monkeypatch, argv, shapes):
        built = self.record_trees(monkeypatch)
        assert cli.main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
        assert built == shapes
        assert max(map(math.prod, built)) <= labframe._TREE_ENTRIES == 3072

    def test_the_top_holds_each_block_product_bit_for_bit(self, monkeypatch):
        # a padding step is an exact identity, so a block's column of its
        # group's top has the bits of a tree of that block alone
        m, protocol, stims, _ = fig4d_case()
        dt = labframe._batch_timestep(m, stims)
        fig4d = (m, labframe.stimulus_field(stims), len(stims), labframe._blocks(
            m, stims, protocol, 0.0, protocol.duration, dt, TWO_PI / m.carrier))
        m, protocol, _, probes = lab_kernel_case()
        dt = labframe._batch_timestep(m, probes)
        kernel = (m, labframe.stimulus_field([None]), 1,  # the adjoint's plain grid
                  labframe._blocks(m, probes, protocol, 0.0, protocol.duration, dt))

        def products():
            return [[u.tobytes() for u in p] for m, field, runs, blocks in (fig4d, kernel)
                    for p in labframe._block_products(m, field, labframe._groups(blocks, runs))]

        groups = [g for *_, runs, blocks in (fig4d, kernel) for g in labframe._groups(blocks, runs)]
        assert max(map(len, groups)) > 1
        assert any(len({labframe._log_length(b) for b in g}) > 1 for g in groups)
        grouped = products()
        monkeypatch.setattr(labframe, "_TREE_ENTRIES", 1)  # a tree holds one block
        assert products() == grouped

    def test_groups_are_balanced_within_the_budget(self):
        # greedy grouping would give 3 + 1 and 8 + 2 blocks
        def sizes(steps, runs):
            blocks = [(0.0, 1.0, True, 0.0, 0, n, 1) for n in steps]
            return list(map(len, labframe._groups(blocks, runs)))

        assert sizes([1024, 911, 1024, 911], 1) == [2, 2]
        assert sizes([1024, 911, 1024, 911], 3) == [1, 1, 1, 1]
        assert sizes([128, 64] * 5, 3) == [5, 5]
        assert sizes([], 3) == []


def test_trace_csv_round_trip(tmp_path):
    m = NvModel.resonant(TWO_PI * 20e6, B0_1GHZ)
    protocol = bipartite_protocol(math.pi / m.rabi)
    t, pops, sz = simulate_trace(m, None, protocol, n_samples=20)
    assert np.all(np.abs(pops.sum(axis=1) - 1.0) <= 1e-10)
    path = tmp_path / "trace.csv"
    cli.write_csv(path, ["t_s", "pop_ms_minus1", "pop_ms0", "pop_ms_plus1", "sz_expect"],
                  np.column_stack([t, pops, sz]))
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,pop_ms_minus1,pop_ms0,pop_ms_plus1,sz_expect"
    assert len(lines) == 21
