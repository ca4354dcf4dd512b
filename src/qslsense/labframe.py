"""Laboratory-frame simulation of the NV spin-1 qutrit.

The model Hamiltonian (all terms rad/s) is

    H(t) = D Sz^2 + ge B0 Sz + ge B1 m(t) Sx + ge Bstim(t) (cos(chi) Sz + sin(chi) Sx)

with explicit carrier modulation ``m(t) = cos(carrier t + phase)`` during
pulse windows, so counter-rotating terms, Bloch-Siegert shifts and spurious
excitation of the second transition are all captured rather than
approximated away.

Basis and labels
----------------
States are ordered by Sz eigenvalue (+1, 0, -1).  The axial bias is taken
anti-parallel to the NV axis, which places the m_S = -1 sensing level at the
*upper* Zeeman branch: its energy is D + ge B0 and the resonant carrier for
the ms0 <-> ms-1 transition is ``carrier = D + ge B0``.  Index map:
ms_minus1 -> 0, ms0 -> 1, ms_plus1 -> 2.

The driven Rabi frequency is ``ge B1 / sqrt(2)``: the spin-1 Sx matrix
element between ms0 and ms+-1 is 1/sqrt(2), i.e. sqrt(2) larger than the
spin-1/2 element, and the rotating-wave factor 1/2 of the cosine drive
leaves ge B1 / sqrt(2) as the observed oscillation frequency.

Integration uses midpoint-sampled matrix-exponential steps: each step is
``psi <- exp(-i H(t + dt/2) dt) psi``, second order accurate and exactly
unitary, so the norm survives arbitrarily long products.  The default step
is 1/(100 f_max) where f_max is the largest cycle-frequency scale in the
problem; steps coarser than 1/(50 f_max) are rejected.

Carrier phase convention: the second pulse window of the two-pulse protocol
is carrier-phase-shifted by -pi/2, which reproduces the rotating-frame axis
convention of :mod:`qslsense.sequence` including the sign of the
signal-induced probability change.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spinlin
from .units import ConfigError

TWO_PI = 2.0 * math.pi

GAMMA_E_CYCLES_PER_TESLA = 28.0345e9   # Hz/T, cycle frequency
D_NV_CYCLES = 2.87e9                   # Hz, cycle frequency

SX1, SY1, SZ1 = spinlin.spin_operators("one")
_SX = SX1.real.copy()
_SZ = SZ1.real.copy()
_SZ2 = (_SZ @ _SZ)

#: carrier phase of the second pulse window relative to the first
PHASE_JUMP = -math.pi / 2

_BASIS_INDEX = {"ms_minus1": 0, "ms0": 1, "ms_plus1": 2}


@dataclass(frozen=True)
class NvModel:
    """Static model parameters, stored in angular units (rad/s, rad, tesla)."""

    d: float = TWO_PI * D_NV_CYCLES
    gamma_e: float = TWO_PI * GAMMA_E_CYCLES_PER_TESLA
    b0: float = 0.0
    b1: float = 0.0
    carrier: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"zero-field splitting must be > 0, got {self.d}")
        if self.b0 < 0 or self.b1 < 0:
            raise ValueError("field magnitudes must be >= 0")
        if not 0.0 <= self.chi <= math.pi / 2:
            raise ValueError(f"chi must lie in [0, pi/2], got {self.chi}")

    @classmethod
    def from_cycles(cls, d_hz: float = D_NV_CYCLES,
                    gamma_e_hz_per_t: float = GAMMA_E_CYCLES_PER_TESLA,
                    b0_t: float = 0.0, b1_t: float = 0.0,
                    carrier_hz: float = 0.0, chi_rad: float = 0.0) -> "NvModel":
        """Build from cycle-frequency inputs (Hz), multiplying by 2 pi on ingestion."""
        return cls(d=TWO_PI * d_hz, gamma_e=TWO_PI * gamma_e_hz_per_t,
                   b0=b0_t, b1=b1_t, carrier=TWO_PI * carrier_hz, chi=chi_rad)

    @classmethod
    def resonant(cls, rabi: float, b0: float, d: float = TWO_PI * D_NV_CYCLES,
                 chi: float = 0.0) -> "NvModel":
        """Model driven at Rabi rate ``rabi`` (rad/s) by a carrier resonant with ms0 <-> ms-1.

        ``b0`` is the axial bias in tesla; b1 comes from :func:`b1_for_rabi`
        and the carrier is :func:`resonant_carrier`'s ``D + ge B0``.
        """
        gamma_e = TWO_PI * GAMMA_E_CYCLES_PER_TESLA
        return cls(d=d, gamma_e=gamma_e, b0=b0, b1=b1_for_rabi(rabi, gamma_e),
                   carrier=d + gamma_e * b0, chi=chi)


@dataclass(frozen=True)
class Stimulus:
    """Time-domain field waveform to be sensed, amplitude in tesla.

    kind "constant": value = amplitude everywhere.
    kind "gaussian": amplitude * exp(-4 ln2 (t - center)^2 / fwhm^2).
    kind "sinusoid": amplitude * sin(frequency * t + phase).
    """

    kind: str
    amplitude: float
    center: float = 0.0
    fwhm: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian", "sinusoid"):
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        if self.kind == "gaussian" and self.fwhm <= 0:
            raise ValueError("gaussian stimulus needs fwhm > 0")
        if self.kind == "sinusoid" and self.frequency < 0:
            raise ValueError("sinusoid frequency must be >= 0")

    @classmethod
    def constant(cls, amplitude: float) -> "Stimulus":
        return cls("constant", amplitude)

    @classmethod
    def gaussian(cls, amplitude: float, center: float, fwhm: float) -> "Stimulus":
        return cls("gaussian", amplitude, center=center, fwhm=fwhm)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float, phase: float = 0.0) -> "Stimulus":
        return cls("sinusoid", amplitude, frequency=frequency, phase=phase)

    def value(self, t):
        """Field value (tesla) at time(s) ``t``; vectorized over arrays."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, self.amplitude)
        elif self.kind == "gaussian":
            out = self.amplitude * np.exp(
                -4.0 * math.log(2.0) * (t - self.center) ** 2 / self.fwhm**2)
        else:
            out = self.amplitude * np.sin(self.frequency * t + self.phase)
        return float(out) if out.ndim == 0 else out

    def area(self) -> float:
        """Integral of the waveform over all time (tesla * s); gaussian only."""
        if self.kind != "gaussian":
            raise ValueError(f"area is only defined for gaussian stimuli, not {self.kind!r}")
        return self.amplitude * self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0)))


@dataclass(frozen=True)
class PulseWindow:
    """Interval [start, stop) where the drive is on, with its carrier phase offset."""

    start: float
    stop: float
    carrier_phase: float = 0.0


@dataclass(frozen=True)
class Protocol:
    """Pulse windows plus preparation and readout basis labels."""

    windows: tuple[PulseWindow, ...]
    prep: str = "ms0"
    readout: str = "ms0"

    def __post_init__(self):
        for name in (self.prep, self.readout):
            if name not in _BASIS_INDEX:
                raise ValueError(f"basis label must be one of {sorted(_BASIS_INDEX)}, got {name!r}")
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def duration(self) -> float:
        return max((w.stop for w in self.windows), default=0.0)


def bipartite_protocol(tau: float, prep: str = "ms0") -> Protocol:
    """Two equal pulse windows over [0, tau], second carrier-phase-shifted by :data:`PHASE_JUMP`.

    Preparation and readout are both in the ``prep`` basis.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    windows = (PulseWindow(0.0, tau / 2, 0.0), PulseWindow(tau / 2, tau, PHASE_JUMP))
    return Protocol(windows, prep=prep, readout=prep)


def basis_state(label: str) -> np.ndarray:
    psi = np.zeros(3, dtype=complex)
    psi[_BASIS_INDEX[label]] = 1.0
    return psi


def rabi_frequency(model: NvModel) -> float:
    """Observed ms0 <-> ms-1 oscillation frequency, ``ge B1 / sqrt(2)`` (rad/s)."""
    return model.gamma_e * model.b1 / math.sqrt(2.0)


def b1_for_rabi(omega: float, gamma_e: float = TWO_PI * GAMMA_E_CYCLES_PER_TESLA) -> float:
    """Drive amplitude (tesla) that yields the requested Rabi frequency."""
    return math.sqrt(2.0) * omega / gamma_e


def resonant_carrier(model: NvModel) -> float:
    """Carrier resonant with the ms0 <-> ms-1 transition, ``D + ge B0`` (rad/s)."""
    return model.d + model.gamma_e * model.b0


def transition_frequencies(model: NvModel) -> tuple[float, float]:
    """(ms0 <-> ms-1, ms0 <-> ms+1) transition frequencies from the static eigenvalues."""
    upper = model.d + model.gamma_e * model.b0
    lower = abs(model.d - model.gamma_e * model.b0)
    return upper, lower


def hamiltonian_at(model: NvModel, stim: Stimulus | None, pulse_on: bool,
                   carrier_phase: float, t: float) -> np.ndarray:
    """Instantaneous 3x3 Hermitian Hamiltonian (rad/s) at time ``t``."""
    h = model.d * _SZ2 + model.gamma_e * model.b0 * _SZ
    if pulse_on:
        m = math.cos(model.carrier * t + carrier_phase)
        h = h + model.gamma_e * model.b1 * m * _SX
    if stim is not None:
        bs = stim.value(t)
        h = h + model.gamma_e * bs * (math.cos(model.chi) * _SZ + math.sin(model.chi) * _SX)
    return h.astype(complex)


def frequency_scales(model: NvModel, stim: Stimulus | None = None) -> dict[str, float]:
    """Cycle-frequency scales (Hz) that the integrator must resolve, by name."""
    scales = {
        "carrier": model.carrier / TWO_PI,
        "zero_field_splitting": model.d / TWO_PI,
        "axial_zeeman": model.gamma_e * model.b0 / TWO_PI,
        "drive_field": model.gamma_e * model.b1 / TWO_PI,
    }
    if stim is not None:
        scales["stimulus_field"] = model.gamma_e * abs(stim.amplitude) / TWO_PI
        if stim.kind == "sinusoid":
            scales["stimulus_frequency"] = stim.frequency / TWO_PI
        elif stim.kind == "gaussian":
            scales["stimulus_bandwidth"] = 1.0 / stim.fwhm / TWO_PI
    return scales


def default_timestep(model: NvModel, stim: Stimulus | None = None,
                     factor: float = 100.0) -> float:
    """Step 1/(factor * f_max) from the largest frequency scale in the problem."""
    fmax = max(frequency_scales(model, stim).values())
    if fmax <= 0:
        raise ConfigError("model has no nonzero frequency scale to set a step from")
    return 1.0 / (factor * fmax)


def _check_timestep(model: NvModel, stim: Stimulus | None, dt: float) -> None:
    scales = frequency_scales(model, stim)
    name = max(scales, key=scales.get)
    fmax = scales[name]
    if fmax > 0 and dt > 1.0 / (50.0 * fmax):
        raise ConfigError(
            f"dt = {dt:.3e} s is too coarse: binding frequency scale '{name}' at "
            f"{fmax:.3e} Hz requires dt <= {1.0 / (50.0 * fmax):.3e} s")


def _spans(protocol: Protocol, t0: float, t1: float):
    """Split [t0, t1] at window boundaries into (a, b, pulse_on, phase) spans."""
    cuts = {t0, t1}
    for w in protocol.windows:
        for edge in (w.start, w.stop):
            if t0 < edge < t1:
                cuts.add(edge)
    cuts = sorted(cuts)
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        on, phase = False, 0.0
        for w in protocol.windows:
            if w.start <= mid < w.stop:
                on, phase = True, w.carrier_phase
                break
        out.append((a, b, on, phase))
    return out


def _evolve_batch(model: NvModel, stims, protocol: Protocol, t0: float, t1: float,
                  dt: float, psis: np.ndarray) -> np.ndarray:
    """Midpoint-exponential stepping of a batch of runs sharing the time grid.

    ``stims`` is a sequence of Stimulus or None, one per row of ``psis``.
    Rows are independent: arithmetic per run is elementwise identical to the
    single-run path, so batching never changes results.
    """
    psis = np.array(psis, dtype=complex)
    n_runs = psis.shape[0]
    base = model.d * _SZ2 + model.gamma_e * model.b0 * _SZ
    axial = math.cos(model.chi) * _SZ + math.sin(model.chi) * _SX
    for a, b, on, phase in _spans(protocol, t0, t1):
        span = b - a
        if span <= 0:
            continue
        n = max(1, int(math.ceil(span / dt)))
        h = span / n
        tm = a + (np.arange(n) + 0.5) * h
        bs = np.zeros((n_runs, n))
        for k, stim in enumerate(stims):
            if stim is not None:
                bs[k] = stim.value(tm)
        if on:
            mvals = model.gamma_e * model.b1 * np.cos(model.carrier * tm + phase)
        else:
            mvals = np.zeros(n)
        for i in range(n):
            ham = (base[None, :, :]
                   + mvals[i] * _SX[None, :, :]
                   + (model.gamma_e * bs[:, i])[:, None, None] * axial[None, :, :])
            w, v = np.linalg.eigh(ham)
            u = (v * np.exp(-1j * w * h)[:, None, :]) @ np.swapaxes(v, 1, 2)
            psis = np.einsum("kij,kj->ki", u, psis)
    return psis


def evolve(model: NvModel, stim: Stimulus | None, protocol: Protocol,
           t0: float, t1: float, dt: float, psi: np.ndarray) -> np.ndarray:
    """Evolve one state over [t0, t1] with midpoint-exponential steps of size <= dt.

    Pulse windows and carrier phases come from ``protocol``; the interval is
    split at window boundaries so no step straddles a drive edge.  Raises
    :class:`~qslsense.units.ConfigError` when ``dt`` exceeds 1/(50 f_max),
    naming the binding frequency scale.
    """
    _check_timestep(model, stim, dt)
    psi = np.asarray(psi, dtype=complex)
    spinlin.check_state(psi)
    out = _evolve_batch(model, [stim], protocol, t0, t1, dt, psi[None, :])
    return out[0]


def run_protocol(model: NvModel, stim: Stimulus | None, protocol: Protocol,
                 dt: float | None = None) -> float:
    """Prepare, run the pulse protocol, and read out the transition probability.

    Returns ``1 - |<readout|psi(T)>|^2``.  A carrier detuned from the
    ms0 <-> ms-1 resonance by more than 1e-6 relative emits a warning (strong
    driving studies legitimately use detuned carriers), never an error.
    """
    res = resonant_carrier(model)
    if abs(model.carrier - res) > 1e-6 * res:
        warnings.warn(
            f"carrier {model.carrier:.6e} rad/s is detuned from the ms0<->ms-1 "
            f"resonance {res:.6e} rad/s", RuntimeWarning, stacklevel=2)
    return float(run_protocol_batch(model, [stim], protocol, dt=dt)[0])


def run_protocol_batch(model: NvModel, stims, protocol: Protocol,
                       dt: float | None = None) -> np.ndarray:
    """Run one protocol for several stimuli at once; returns one probability per stimulus.

    Each entry of ``stims`` may be a Stimulus or None (reference run).  Runs
    are independent and results identical to serial single runs.
    """
    if dt is None:
        dt = min(default_timestep(model, s) for s in stims) if stims else default_timestep(model)
    for s in stims:
        _check_timestep(model, s, dt)
    psi0 = basis_state(protocol.prep)
    psis = np.tile(psi0, (len(stims), 1))
    psis = _evolve_batch(model, stims, protocol, 0.0, protocol.duration, dt, psis)
    idx = _BASIS_INDEX[protocol.readout]
    return 1.0 - np.abs(psis[:, idx]) ** 2


def simulate_trace(model: NvModel, stim: Stimulus | None, protocol: Protocol,
                   dt: float | None = None, n_samples: int = 200):
    """Populations and <Sz> sampled along one protocol run.

    Returns ``(t, populations, sz)`` with populations of shape (n, 3) in
    basis order (ms-1, ms0, ms+1).
    """
    if dt is None:
        dt = default_timestep(model, stim)
    _check_timestep(model, stim, dt)
    duration = protocol.duration
    times = np.linspace(0.0, duration, n_samples)
    psi = basis_state(protocol.prep)
    pops = np.empty((n_samples, 3))
    sz = np.empty(n_samples)
    pops[0] = np.abs(psi) ** 2
    sz[0] = spinlin.expectation(SZ1, psi)
    for i in range(1, n_samples):
        psi = _evolve_batch(model, [stim], protocol, times[i - 1], times[i], dt,
                            psi[None, :])[0]
        pops[i] = np.abs(psi) ** 2
        sz[i] = spinlin.expectation(SZ1, psi)
    return times, pops, sz


def model_to_dict(model: NvModel) -> dict:
    """SI-unit (cycle frequency) dictionary form for configuration documents."""
    return {
        "d_hz": model.d / TWO_PI,
        "gamma_e_hz_per_t": model.gamma_e / TWO_PI,
        "b0_t": model.b0,
        "b1_t": model.b1,
        "carrier_hz": model.carrier / TWO_PI,
        "chi_rad": model.chi,
    }


def model_from_dict(doc: dict) -> NvModel:
    try:
        return NvModel.from_cycles(
            d_hz=doc.get("d_hz", D_NV_CYCLES),
            gamma_e_hz_per_t=doc.get("gamma_e_hz_per_t", GAMMA_E_CYCLES_PER_TESLA),
            b0_t=doc.get("b0_t", 0.0),
            b1_t=doc.get("b1_t", 0.0),
            carrier_hz=doc.get("carrier_hz", 0.0),
            chi_rad=doc.get("chi_rad", 0.0),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model document: {exc}") from exc


def stimulus_to_dict(stim: Stimulus) -> dict:
    doc = {"kind": stim.kind, "amplitude_t": stim.amplitude}
    if stim.kind == "gaussian":
        doc.update(center_s=stim.center, fwhm_s=stim.fwhm)
    elif stim.kind == "sinusoid":
        doc.update(frequency_hz=stim.frequency / TWO_PI, phase_rad=stim.phase)
    return doc


def stimulus_from_dict(doc: dict) -> Stimulus:
    try:
        kind = doc["kind"]
        amp = doc["amplitude_t"]
        if kind == "constant":
            return Stimulus.constant(amp)
        if kind == "gaussian":
            return Stimulus.gaussian(amp, doc["center_s"], doc["fwhm_s"])
        if kind == "sinusoid":
            return Stimulus.sinusoid(amp, TWO_PI * doc["frequency_hz"],
                                     doc.get("phase_rad", 0.0))
        raise ConfigError(f"unknown stimulus kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"stimulus document missing field {exc}") from exc


def config_to_json(model: NvModel, stim: Stimulus | None = None,
                   protocol: Protocol | None = None) -> str:
    doc: dict = {"model": model_to_dict(model)}
    if stim is not None:
        doc["stimulus"] = stimulus_to_dict(stim)
    if protocol is not None:
        doc["protocol"] = {
            "prep": protocol.prep, "readout": protocol.readout,
            "windows": [{"start_s": w.start, "stop_s": w.stop,
                         "carrier_phase_rad": w.carrier_phase}
                        for w in protocol.windows],
        }
    return json.dumps(doc, indent=2)


def config_from_json(text: str):
    """Parse a configuration document; returns (model, stimulus, protocol), latter two optional."""
    doc = json.loads(text)
    if "model" not in doc:
        raise ConfigError("configuration document has no 'model' section")
    model = model_from_dict(doc["model"])
    stim = stimulus_from_dict(doc["stimulus"]) if "stimulus" in doc else None
    protocol = None
    if "protocol" in doc:
        p = doc["protocol"]
        windows = tuple(PulseWindow(w["start_s"], w["stop_s"],
                                    w.get("carrier_phase_rad", 0.0))
                        for w in p.get("windows", ()))
        protocol = Protocol(windows, prep=p.get("prep", "ms0"),
                            readout=p.get("readout", "ms0"))
    return model, stim, protocol
