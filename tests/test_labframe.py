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
    config_from_json,
    config_to_json,
    default_timestep,
    evolve,
    hamiltonian_at,
    rabi_frequency,
    resonant_carrier,
    run_protocol,
    run_protocol_batch,
    simulate_trace,
    transition_frequencies,
)
from qslsense.units import ConfigError

TWO_PI = 2 * math.pi


# axial bias (tesla) of a 1 GHz and a 3.4 GHz Zeeman shift
B0_1GHZ = 1e9 / labframe.GAMMA_E_CYCLES_PER_TESLA
B0_3GHZ4 = 3.4e9 / labframe.GAMMA_E_CYCLES_PER_TESLA


class TestModel:
    def test_defaults(self):
        m = NvModel()
        assert m.d == pytest.approx(TWO_PI * 2.87e9)
        assert m.gamma_e == pytest.approx(TWO_PI * 28.0345e9)

    def test_from_cycles_applies_two_pi(self):
        m = NvModel.from_cycles(d_hz=1e9, carrier_hz=2e9)
        assert m.d == pytest.approx(TWO_PI * 1e9)
        assert m.carrier == pytest.approx(TWO_PI * 2e9)

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
        assert np.allclose(dh, m.gamma_e * 1e-3 * labframe.SZ1)

    def test_transverse_stimulus_couples_through_sx(self):
        m = NvModel(b0=0.1, chi=math.pi / 2)
        stim = Stimulus.constant(1e-3)
        dh = hamiltonian_at(m, stim, False, 0.0, 0.0) - hamiltonian_at(m, None, False, 0.0, 0.0)
        assert np.allclose(dh, m.gamma_e * 1e-3 * labframe.SX1)

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
        ref = spinlin.matexp_antihermitian(h, span) @ basis_state("ms0")
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


def test_config_json_round_trip():
    m = NvModel.resonant(TWO_PI * 10e6, B0_1GHZ, chi=0.2)
    stim = Stimulus.gaussian(1e-4, 3e-9, 1e-9)
    protocol = bipartite_protocol(5e-8, prep="ms_minus1")
    text = config_to_json(m, stim, protocol)
    m2, s2, p2 = config_from_json(text)
    assert m2.d == pytest.approx(m.d, rel=1e-12)
    assert m2.carrier == pytest.approx(m.carrier, rel=1e-12)
    assert m2.chi == pytest.approx(m.chi)
    assert s2 == stim
    assert p2.prep == "ms_minus1"
    assert p2.windows[1].carrier_phase == pytest.approx(labframe.PHASE_JUMP)


def test_config_errors():
    with pytest.raises(ConfigError):
        config_from_json("{}")
    with pytest.raises(ConfigError):
        labframe.stimulus_from_dict({"kind": "gaussian", "amplitude_t": 1.0})
