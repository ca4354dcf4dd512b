import math

import numpy as np
import pytest

from qslsense import analytic, cli, labframe, spinlin
from qslsense.labframe import (
    NvModel,
    Protocol,
    PulseWindow,
    Stimulus,
    basis_state,
    bipartite_protocol,
    default_timestep,
    evolve,
    rabi_frequency,
    resonant_carrier,
    run_protocol,
    run_protocol_batch,
    transition_frequencies,
)
from qslsense.units import ConfigError

from oracles import SX1, SZ1, hamiltonian_at, matexp_antihermitian, simulate_trace

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
    return 1.0 - abs(psi[labframe._BASIS_INDEX[protocol.readout]]) ** 2


class TestModel:
    def test_defaults(self):
        m = NvModel()
        assert m.d == pytest.approx(TWO_PI * 2.87e9)
        assert m.gamma_e == pytest.approx(TWO_PI * 28.0345e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            NvModel(d=-1.0)
        with pytest.raises(ValueError):
            NvModel(chi=2.0)

    def test_rabi_frequency_convention(self):
        om = TWO_PI * 10e6
        m = NvModel(b1=math.sqrt(2) * om / (TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA))
        assert rabi_frequency(m) == pytest.approx(om, rel=1e-12)
        assert rabi_frequency(NvModel(b1=0.0)) == 0.0

    def test_resonant_constructor(self):
        m = NvModel.resonant(TWO_PI * 10e6, 0.1, d=TWO_PI * 0.5e9, chi=0.3)
        assert rabi_frequency(m) == pytest.approx(TWO_PI * 10e6, rel=1e-12)
        assert m.carrier == resonant_carrier(m)
        assert (m.d, m.b0, m.chi) == (TWO_PI * 0.5e9, 0.1, 0.3)

    def test_transition_splitting_saturates(self):
        # below the crossing the splitting grows as 2 ge B0, beyond it pins at 2 D
        m_low = NvModel(b0=0.05)
        up, lo = transition_frequencies(m_low)
        assert up - lo == pytest.approx(2 * m_low.gamma_e * 0.05, rel=1e-12)
        m_high = NvModel(b0=3.0)
        up, lo = transition_frequencies(m_high)
        assert up - lo == pytest.approx(2 * m_high.d, rel=1e-12)


class TestStimulus:
    def test_constant(self):
        assert Stimulus.constant(2e-3).value(123.0) == pytest.approx(2e-3)

    def test_gaussian_fwhm(self):
        s = Stimulus.gaussian(1.0, center=0.0, fwhm=2.0)
        assert s.value(1.0) == pytest.approx(0.5)
        assert s.area() == pytest.approx(2.0 * math.sqrt(math.pi / (4 * math.log(2))))

    def test_sinusoid(self):
        s = Stimulus.sinusoid(1.5, frequency=2.0, phase=0.5)
        assert s.value(0.0) == pytest.approx(1.5 * math.sin(0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            Stimulus.gaussian(1.0, 0.0, fwhm=0.0)
        with pytest.raises(ValueError):
            Stimulus("ramp", 1.0)
        with pytest.raises(ValueError):
            Stimulus.constant(1.0).area()


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
        zeeman = m.gamma_e * 0.1
        assert np.allclose(h, np.diag([m.d + zeeman, 0.0, m.d - zeeman]))

    def test_axial_stimulus_couples_through_sz(self):
        m = NvModel(b0=0.1, chi=0.0)
        stim = Stimulus.constant(1e-3)
        dh = hamiltonian_at(m, stim, False, 0.0, 0.0) - hamiltonian_at(m, None, False, 0.0, 0.0)
        assert np.allclose(dh, m.gamma_e * 1e-3 * SZ1)

    def test_transverse_stimulus_couples_through_sx(self):
        m = NvModel(b0=0.1, chi=math.pi / 2)
        stim = Stimulus.constant(1e-3)
        dh = hamiltonian_at(m, stim, False, 0.0, 0.0) - hamiltonian_at(m, None, False, 0.0, 0.0)
        assert np.allclose(dh, m.gamma_e * 1e-3 * SX1)

    def test_hermitian(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ, chi=0.3)
        h = hamiltonian_at(m, Stimulus.sinusoid(1e-4, 1e8), True, 0.4, 1.7e-9)
        assert spinlin.is_hermitian(h)


class TestEvolve:
    def test_constant_hamiltonian_matches_matexp(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        protocol = Protocol(windows=(), prep="ms0")  # drive off: H is static
        dt = default_timestep(m, stim)
        span = 2e-9
        psi = evolve(m, stim, protocol, 0.0, span, dt, basis_state("ms0"))
        h = hamiltonian_at(m, stim, False, 0.0, 0.0)
        ref = matexp_antihermitian(h, span) @ basis_state("ms0")
        assert np.max(np.abs(psi - ref)) <= 1e-10

    def test_norm_preserved(self):
        m = NvModel.resonant(TWO_PI * 20e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        psi = evolve(m, None, protocol, 0.0, protocol.duration,
                     default_timestep(m), basis_state("ms0"))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_coarse_step_rejected_with_binding_scale(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        with pytest.raises(ConfigError, match="carrier"):
            evolve(m, None, protocol, 0.0, 1e-9, 1e-9, basis_state("ms0"))

    def test_reversed_interval_rejected(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        dt = default_timestep(m)
        psi0 = basis_state("ms0")
        with pytest.raises(ValueError, match="t1 >= t0"):
            evolve(m, None, protocol, 2e-9, 0.0, dt, psi0)
        # an empty interval is the identity
        assert np.array_equal(evolve(m, None, protocol, 2e-9, 2e-9, dt, psi0), psi0)

    def test_second_order_convergence(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        om = rabi_frequency(m)
        protocol = bipartite_protocol(math.pi / om)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        dt0 = default_timestep(m, stim)
        p = [run_protocol_batch(m, [stim], protocol, dt=dt0 / f)[0] for f in (1, 2, 4, 8)]
        d1, d2, d3 = abs(p[0] - p[1]), abs(p[1] - p[2]), abs(p[2] - p[3])
        assert d3 < 1e-6          # halving dt changes populations below 1e-6
        assert 2.5 < d1 / d2 < 6.0  # second-order decay of the step error
        assert 2.5 < d2 / d3 < 6.0

    def test_second_order_convergence_off_axis(self):
        # the offaxis command's model at chi = 45 deg, where the stimulus
        # also enters the Sx rotation angle
        m = NvModel.resonant(TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
                             d=TWO_PI * 0.5e9, chi=math.radians(45.0))
        om = rabi_frequency(m)
        protocol = bipartite_protocol(math.pi / om)
        stim = Stimulus.sinusoid(m.b1 / (10 * math.sqrt(2)), om)
        dt0 = default_timestep(m, stim)
        p = [run_protocol_batch(m, [stim], protocol, dt=dt0 / f)[0] for f in (1, 2, 4, 8)]
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

    A run with no stimulus or a constant one steps a driven span [a, b] of at
    least two carrier periods T, when one period's ceil(T/dt) steps fit in
    one block, as floor((b - a)/T) periods of ceil(T/dt) equal steps from a,
    then the rest of the span; every other span is ``ceil(span/dt)`` equal
    steps.
    """
    periodic = stim is None or stim.kind == "constant"
    period = TWO_PI / model.carrier if periodic and model.carrier > 0 else math.inf
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
            z = model.gamma_e * (model.b0 + bs * cos_chi)
            e_plus = np.exp(-0.5j * h * (model.d + z))
            e_minus = np.exp(-0.5j * h * (model.d - z))
            drive = model.gamma_e * model.b1 * math.cos(model.carrier * tm + phase) if on else 0.0
            theta = h * (drive + model.gamma_e * bs * sin_chi)
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
             Stimulus.sinusoid(bs, 1.3 * rabi_frequency(m), phase=0.2), None]
    return [kinds[k % 4] for k in range(n_runs)]


class TestBlockStepper:
    """The block-product stepper against the per-step loop it replaced."""

    @pytest.mark.parametrize("steps", [100, labframe._BLOCK_STEPS, 2500])
    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    def test_matches_per_step_loop(self, chi_deg, steps):
        # a driven window of `steps` steps, then a drive-off span of about
        # steps/2, from a state with all three components occupied
        m = offaxis_model(chi_deg)
        tau = math.pi / rabi_frequency(m)
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
        tau = math.pi / rabi_frequency(m)
        protocol = bipartite_protocol(tau)
        stims = mixed_stimuli(m, tau, 11)
        assert len(stims) > 2 * labframe._CHUNK_RUNS
        dt = min(default_timestep(m, s) for s in stims)
        batch = run_protocol_batch(m, stims, protocol, dt=dt)
        singles = [run_protocol_batch(m, [s], protocol, dt=dt)[0] for s in stims]
        assert batch.tolist() == singles

    def test_powered_periods_match_per_step_loop(self):
        # fig4d's lowest Rabi rate: a 152.5-period window, so one period's
        # product is squared up to the 128th power (measured gap 5.2e-13)
        m = fig4d_model(0.1)
        tau = math.pi / rabi_frequency(m)
        protocol = Protocol(windows=(PulseWindow(0.0, tau / 2, 0.3),), prep="ms0")
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), None, Stimulus.constant(-bs)]
        dt = min(default_timestep(m, s) for s in stims)
        psis = np.tile(np.array([1.0, 1j, -1.0]) / math.sqrt(3), (3, 1))
        got = labframe._evolve_batch(m, stims, protocol, 0.0, tau / 2, dt, psis)
        want = per_step_states(m, stims, protocol, 0.0, tau / 2, dt, psis)
        powers = [b[-1] for b in labframe._blocks(protocol, 0.0, tau / 2, dt,
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
        blocks = labframe._blocks(protocol, 0.0, 3.5 * period, dt, period)
        assert [b[-1] for b in blocks] == [1] * len(blocks)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_norm_preserved_over_powered_window(self):
        # fig4d --expensive's lowest Rabi rate: about 980 carrier periods
        m = fig4d_model(0.1, b0=40.0)
        tau = math.pi / rabi_frequency(m)
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2)))
        protocol = Protocol(windows=(PulseWindow(0.0, tau / 2, 0.0),), prep="ms0")
        assert tau / 2 * m.carrier / TWO_PI > 900
        for s in (stim, None):
            psi = evolve(m, s, protocol, 0.0, tau / 2, default_timestep(m, stim),
                         basis_state("ms0"))
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    @pytest.mark.parametrize("chi_deg", [0.0, 45.0])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "none"])
    def test_powered_grid_against_dt_over_4(self, chi_deg, constant):
        m = offaxis_model(chi_deg)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        stim = Stimulus.constant(m.b1 / (10 * math.sqrt(2))) if constant else None
        dt = default_timestep(m, stim)
        p = run_protocol_batch(m, [stim], protocol, dt=dt)[0]
        assert protocol.duration / 2 > 2 * TWO_PI / m.carrier
        assert abs(p - midpoint_exponential_probability(m, stim, protocol, dt / 4)) < 3e-5

    @pytest.mark.parametrize("case", ["carrier-free", "drive-off", "short-window"])
    def test_unpowered_spans_keep_the_plain_grid(self, case):
        # a sinusoid of frequency 0 holds the same field but always steps on
        # the plain ceil(span/dt) grid, so the runs must agree bit for bit
        m = offaxis_model(45.0)
        period = TWO_PI / m.carrier
        windows = (PulseWindow(0.0, 40 * period, 0.3),)
        if case == "carrier-free":
            m = NvModel(d=m.d, gamma_e=m.gamma_e, b0=m.b0, b1=m.b1, chi=m.chi)
        elif case == "drive-off":
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
        # default_timestep, which run_protocol_batch looks up at call time
        m = offaxis_model(45.0)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        stims = mixed_stimuli(m, protocol.duration, 4)
        half = min(default_timestep(m, s) for s in stims) / 2
        plain = run_protocol_batch(m, stims, protocol)
        monkeypatch.setattr(labframe, "default_timestep",
                            lambda model, stim=None, factor=100.0:
                            default_timestep(model, stim, 2 * factor))
        patched = run_protocol_batch(m, stims, protocol)
        assert patched.tolist() == run_protocol_batch(m, stims, protocol, dt=half).tolist()
        assert patched.tolist() != plain.tolist()

    @pytest.mark.parametrize("dt", [0.0, -1e-12, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, dt):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(1e-8)
        for stims in ([None], []):
            with pytest.raises(ConfigError, match="dt"):
                run_protocol_batch(m, stims, protocol, dt=dt)
        with pytest.raises(ConfigError, match="dt"):
            evolve(m, None, protocol, 0.0, 1e-9, dt, basis_state("ms0"))


class TestRunProtocol:
    def test_selective_pi_pulse_transfers_population(self):
        # resonant pulse of area pi at moderate drive: ms0 -> ms-1 nearly perfectly
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        om = rabi_frequency(m)
        protocol = Protocol(windows=(PulseWindow(0.0, math.pi / om, 0.0),),
                            prep="ms0", readout="ms_minus1")
        p = run_protocol(m, None, protocol)
        fidelity = 1.0 - p  # readout projects onto ms-1
        assert fidelity > 0.999

    def test_rabi_period_within_one_percent(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        om = rabi_frequency(m)
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
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        p = run_protocol(m, None, protocol)
        assert p == pytest.approx(0.5, abs=1e-3)

    def test_rwa_regime_matches_sequence(self):
        # moderate drive, chi = 0: full lab model vs exact rotating-frame result
        m = NvModel.resonant(TWO_PI * 5e6, B0_3GHZ4)
        om = rabi_frequency(m)
        tau = math.pi / om
        protocol = bipartite_protocol(tau)
        bs = m.b1 / (10 * math.sqrt(2))
        for sign in (1.0, -1.0, 0.0):
            p_lab = run_protocol(m, Stimulus.constant(sign * bs) if sign else None, protocol)
            p_ref = analytic.exact_transition_probability(
                analytic.BipartiteParams(om, tau, sign * m.gamma_e * bs))
            assert abs(p_lab - p_ref) <= 1e-3

    def test_stimulus_sign_reversal_flips_dp(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        bs = m.b1 / (10 * math.sqrt(2))
        dt = default_timestep(m, Stimulus.constant(bs))
        p = run_protocol_batch(
            m, [Stimulus.constant(bs), Stimulus.constant(-bs), None], protocol, dt=dt)
        dp_plus, dp_minus = p[0] - p[2], p[1] - p[2]
        assert dp_plus * dp_minus < 0
        assert abs(dp_plus + dp_minus) <= 2e-3

    def test_batch_bit_identical_to_single_runs(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        bs = m.b1 / (10 * math.sqrt(2))
        stims = [Stimulus.constant(bs), Stimulus.constant(-bs), None]
        dt = default_timestep(m, stims[0])
        batch = run_protocol_batch(m, stims, protocol, dt=dt)
        singles = [run_protocol(m, s, protocol, dt=dt) for s in stims]
        assert all(batch[i] == singles[i] for i in range(3))

    def test_detuned_carrier_warns(self):
        m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ)
        detuned = NvModel(d=m.d, gamma_e=m.gamma_e, b0=m.b0, b1=m.b1,
                          carrier=m.carrier * 1.01)
        protocol = bipartite_protocol(math.pi / rabi_frequency(m))
        with pytest.warns(RuntimeWarning, match="detuned"):
            run_protocol(detuned, None, protocol)


def test_trace_csv_round_trip(tmp_path):
    m = NvModel.resonant(TWO_PI * 20e6, B0_1GHZ)
    protocol = bipartite_protocol(math.pi / rabi_frequency(m))
    t, pops, sz = simulate_trace(m, None, protocol, n_samples=20)
    assert np.all(np.abs(pops.sum(axis=1) - 1.0) <= 1e-10)
    path = tmp_path / "trace.csv"
    cli.write_csv(path, ["t_s", "pop_ms_minus1", "pop_ms0", "pop_ms_plus1", "sz_expect"],
                  np.column_stack([t, pops, sz]))
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,pop_ms_minus1,pop_ms0,pop_ms_plus1,sz_expect"
    assert len(lines) == 21
