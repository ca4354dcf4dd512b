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

Integration uses a symmetric (Strang) split of H, sampled at the step
midpoint t_m, into its diagonal part and its one Sx term:

    psi <- exp(-i Delta h/2) R(theta) exp(-i Delta h/2) psi,
    Delta = diag(D + z, 0, D - z),   z = ge (B0 + Bstim(t_m) cos(chi)),
    theta = h (ge B1 m(t_m) + ge Bstim(t_m) sin(chi)),

where ``R(theta) = exp(-i theta Sx)`` has the spin-1 closed form
``1 - i sin(theta) Sx + (cos(theta) - 1) Sx^2``, so no eigensolver runs.
The split differs from ``exp(-i H(t_m) h)`` by O(h^3) per step, so the
scheme is second order.  Every factor is unitary, so the norm is kept to
rounding over arbitrarily long products.  In the frame rotating with Delta
the split is the midpoint rule, so its leading error comes from the fast
counter-rotating part of the drive: strongly driven models (a Rabi rate
that is a sizeable fraction of the carrier) carry more of it than weakly
driven ones.  The default step is 1/(100 f_max) where f_max is the largest
cycle-frequency scale in the problem; steps coarser than 1/(50 f_max) are
rejected.

Batches of runs share the time grid.  Each run's arithmetic is elementwise
and independent of the other runs, so a batched result is bit-identical to
the same run on its own.

Carrier phase convention: the second pulse window of the two-pulse protocol
is carrier-phase-shifted by -pi/2, which reproduces the rotating-frame axis
convention of :mod:`qslsense.sequence` including the sign of the
signal-induced probability change.
"""

from __future__ import annotations

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

#: time steps per block of precomputed phases and rotation angles
_BLOCK_STEPS = 64


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
        out = stimulus_field([self])(t.ravel())[0].reshape(t.shape)
        return float(out) if out.ndim == 0 else out

    def area(self) -> float:
        """Integral of the waveform over all time (tesla * s); gaussian only."""
        if self.kind != "gaussian":
            raise ValueError(f"area is only defined for gaussian stimuli, not {self.kind!r}")
        return self.amplitude * self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0)))


def stimulus_field(stims):
    """Return ``field(t)``, the field values (tesla) of a batch of stimuli, shape (runs, len(t)).

    A None entry gives a row of zeros.  The stimuli's parameters are
    gathered once, by kind, so a stepper can call ``field`` once per block
    of times.  The stimuli of one kind are evaluated as one broadcast array
    with elementwise operations only, so a row has the same bits in any
    batch.  :meth:`Stimulus.value` is the one-row call.
    """
    rows_of = {}
    for k, stim in enumerate(stims):
        if stim is not None:
            rows_of.setdefault(stim.kind, []).append(k)
    groups = []
    for kind, rows in rows_of.items():
        # fwhm**2 stays a Python float power: pow(x, 2) and x*x differ in
        # the last bit for about one value in 1200
        params = np.array([[stims[k].amplitude, stims[k].center, stims[k].fwhm**2,
                            stims[k].frequency, stims[k].phase] for k in rows])
        groups.append((kind, rows, *params.T[:, :, None]))  # one (rows, 1) column each

    def field(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros((len(stims), t.size))
        for kind, rows, amplitude, center, fwhm_sq, frequency, phase in groups:
            if kind == "constant":
                out[rows] = amplitude
            elif kind == "gaussian":
                out[rows] = amplitude * np.exp(
                    -4.0 * math.log(2.0) * (t - center) ** 2 / fwhm_sq)
            else:
                out[rows] = amplitude * np.sin(frequency * t + phase)
        return out

    return field


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


def _rotate_sx(cos_t, g, q, plus, zero, minus):
    """Apply ``R(theta) = exp(-i theta Sx)`` to the Sz = +1, 0, -1 components.

    Takes ``cos_t = cos(theta)``, ``g = sin(theta/2)^2`` and
    ``q = -i sin(theta)/sqrt(2)``, all complex.  The spin-1 closed form
    ``R = 1 - i sin(theta) Sx + (cos(theta) - 1) Sx^2`` maps, with
    ``u = psi+ + psi-``, ``psi+- -> psi+- - g u + q psi0`` and
    ``psi0 -> cos(theta) psi0 + q u``.
    """
    u = plus + minus
    shift = q * zero - g * u
    return plus + shift, cos_t * zero + q * u, minus + shift


def _evolve_batch(model: NvModel, stims, protocol: Protocol, t0: float, t1: float,
                  dt: float, psis: np.ndarray) -> np.ndarray:
    """Strang-split stepping of a batch of runs sharing the time grid.

    ``stims`` is a sequence of Stimulus or None, one per row of ``psis``.
    [t0, t1] is cut at window edges (:func:`_spans`) and each span into
    ``n = ceil(span/dt)`` equal steps of size h.  A step with midpoint t_m is
    ``psi <- exp(-i Delta h/2) R(theta) exp(-i Delta h/2) psi`` with
    ``Delta = diag(D + z, 0, D - z)``, ``z = ge (B0 + b_s(t_m) cos chi)`` and
    ``theta = h (ge B1 cos(carrier t_m + phase) + ge b_s(t_m) sin chi)``,
    the drive term counting only inside a pulse window.  Its local error
    against ``exp(-i H(t_m) h)`` is O(h^3), so the scheme is second order,
    and every factor is unitary up to rounding.

    The stimulus field (:func:`stimulus_field`), the diagonal phases and the
    rotation's cos/sin factors are computed in blocks of
    :data:`_BLOCK_STEPS` steps, never for a whole span, so memory
    does not grow with the span.  The state is held as one contiguous array
    per component, one entry per run, and updated by out-of-place
    elementwise operations only, so each run's arithmetic is independent of
    the batch around it: batched results are bit-identical to single runs.
    """
    psis = np.asarray(psis, dtype=complex)
    plus, zero, minus = psis.T.copy()
    cos_chi, sin_chi = math.cos(model.chi), math.sin(model.chi)
    field = stimulus_field(stims)
    for a, b, on, phase in _spans(protocol, t0, t1):
        span = b - a
        if span <= 0:
            continue
        n = max(1, int(math.ceil(span / dt)))
        h = span / n
        for i0 in range(0, n, _BLOCK_STEPS):
            tm = a + (np.arange(i0, min(i0 + _BLOCK_STEPS, n)) + 0.5) * h
            bs = np.ascontiguousarray(field(tm).T)
            z = model.gamma_e * (model.b0 + bs * cos_chi)
            ph_plus = np.exp(-0.5j * h * (model.d + z))
            ph_minus = np.exp(-0.5j * h * (model.d - z))
            if on:
                drive = model.gamma_e * model.b1 * np.cos(model.carrier * tm + phase)
            else:
                drive = np.zeros(tm.size)
            theta = h * (drive[:, None] + model.gamma_e * bs * sin_chi)
            cos_t = np.cos(theta).astype(complex)
            g = (np.sin(0.5 * theta) ** 2).astype(complex)
            q = (-1j / math.sqrt(2.0)) * np.sin(theta)
            # out-of-place products: numpy's in-place complex multiply takes
            # a different loop for one run than for several
            for e_plus, e_minus, c, gj, qj in zip(ph_plus, ph_minus, cos_t, g, q):
                plus, zero, minus = _rotate_sx(c, gj, qj, plus * e_plus, zero,
                                               minus * e_minus)
                plus = plus * e_plus
                minus = minus * e_minus
    return np.stack([plus, zero, minus], axis=1)


def evolve(model: NvModel, stim: Stimulus | None, protocol: Protocol,
           t0: float, t1: float, dt: float, psi: np.ndarray) -> np.ndarray:
    """Evolve one state over [t0, t1] with Strang-split steps of size <= dt.

    Pulse windows and carrier phases come from ``protocol``; the interval is
    split at window boundaries so no step straddles a drive edge.  Raises
    :class:`~qslsense.units.ConfigError` when ``dt`` exceeds 1/(50 f_max),
    naming the binding frequency scale, and ``ValueError`` when ``t1 < t0``
    (``t1 == t0`` returns the state unchanged).
    """
    if t1 < t0:
        raise ValueError(f"evolve needs t1 >= t0, got t0 = {t0:.6e} s, t1 = {t1:.6e} s")
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
