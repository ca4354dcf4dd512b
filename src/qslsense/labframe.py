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

Steps are not applied one at a time.  For a block of up to 1024 steps,
each step's 3x3 unitary ``P R(theta) P`` (``P = exp(-i Delta h/2)``) is
built in closed form for every run at once, the block's product is formed
by pairwise (tree) reduction, and the product is applied to the states.
Runs go through in chunks of a fixed number of steps x runs, so memory is
bounded by one block of one chunk for any protocol and batch.  A run with
no stimulus or a constant one sees an H that is periodic in the carrier
inside a pulse window, so a window of at least two carrier periods, whose
period fits in one block, is stepped on a grid commensurate with the
carrier and one period's product is raised to the number of whole periods
by repeated squaring (Shirley, Phys. Rev. 138, B979 (1965)).  Each run's
grid depends only on the run, the block length does not depend on the
batch, and each run's arithmetic is elementwise and independent of the
other runs, so a batched result is bit-identical to the same run on its
own.

:func:`linear_response` gives the exact first-order response of this
discrete integrator to a stimulus, from one reference run and its adjoint
on the same blocks, for any number of stimuli.

Carrier phase convention: the second pulse window of the two-pulse protocol
is carrier-phase-shifted by -pi/2, which reproduces the rotating-frame axis
convention of :mod:`qslsense.sequence` including the sign of the
signal-induced probability change.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spinlin
from .units import ConfigError

TWO_PI = 2.0 * math.pi

GAMMA_E_CYCLES_PER_TESLA = 28.0345e9   # Hz/T, cycle frequency
D_NV_CYCLES = 2.87e9                   # Hz, cycle frequency

#: carrier phase of the second pulse window relative to the first
PHASE_JUMP = -math.pi / 2

_BASIS_INDEX = {"ms_minus1": 0, "ms0": 1, "ms_plus1": 2}

#: time steps per block of step unitaries (:func:`_blocks`)
_BLOCK_STEPS = 1024
#: runs per chunk of a block, 3072 steps x runs entries (4 runs, 4096
#: entries, took about 0.5 MB more peak memory in `fig4d` plus `offaxis`)
_CHUNK_RUNS = 3


def _require_finite(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
        _require_finite(d=self.d, gamma_e=self.gamma_e, b0=self.b0, b1=self.b1,
                        carrier=self.carrier, chi=self.chi)
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
        _require_finite(amplitude=self.amplitude, center=self.center, fwhm=self.fwhm,
                        frequency=self.frequency, phase=self.phase)
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
    """Return ``field(t)``, the field values (tesla) of a batch of stimuli.

    ``t`` is either one time axis shared by every run, shape (T,), giving
    shape (runs, T), or one row of times per run for the first k runs,
    shape (k, T), giving shape (k, T).  A None entry gives a row of zeros.
    The stimuli's parameters are gathered once, by kind, so a stepper can
    call ``field`` once per block of times.  The stimuli of one kind are
    evaluated as one broadcast array with elementwise operations only, so a
    row has the same bits in any batch and for either shape of ``t``.
    :meth:`Stimulus.value` is the one-row call.
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
        groups.append((kind, np.array(rows), *params.T[:, :, None]))  # (rows, 1) columns

    def field(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        n = len(t) if t.ndim == 2 else len(stims)
        out = np.zeros((n, t.shape[-1]))
        for kind, rows, *params in groups:
            if rows[0] >= n:  # none of the kind's rows is among the first n
                continue
            if rows[-1] >= n:  # keep the kind's rows among the first n
                k = np.searchsorted(rows, n)
                rows, params = rows[:k], [p[:k] for p in params]
            amplitude, center, fwhm_sq, frequency, phase = params
            tk = t[rows] if t.ndim == 2 else t
            if kind == "constant":
                out[rows] = amplitude
            elif kind == "gaussian":
                out[rows] = amplitude * np.exp(
                    -4.0 * math.log(2.0) * (tk - center) ** 2 / fwhm_sq)
            else:
                out[rows] = amplitude * np.sin(frequency * tk + phase)
        return out

    return field


@dataclass(frozen=True)
class PulseWindow:
    """Interval [start, stop) where the drive is on, with its carrier phase offset."""

    start: float
    stop: float
    carrier_phase: float = 0.0

    def __post_init__(self):
        _require_finite(start=self.start, stop=self.stop, carrier_phase=self.carrier_phase)
        if self.stop < self.start:
            raise ValueError(f"stop must be >= start, got start {self.start}, stop {self.stop}")


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
        # overlapping windows would leave the drive phase to the listing order
        ordered = sorted((w for w in self.windows if w.stop > w.start), key=lambda w: w.start)
        for prev, w in zip(ordered, ordered[1:]):
            if w.start < prev.stop:
                raise ValueError(f"pulse windows {prev} and {w} overlap")

    @property
    def duration(self) -> float:
        return max((w.stop for w in self.windows), default=0.0)


def bipartite_protocol(tau: float, prep: str = "ms0") -> Protocol:
    """Two equal pulse windows over [0, tau], second carrier-phase-shifted by :data:`PHASE_JUMP`.

    Preparation and readout are both in the ``prep`` basis.
    """
    _require_finite(tau=tau)
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
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be a finite step > 0 s, got {dt}")
    scales = frequency_scales(model, stim)
    name = max(scales, key=scales.get)
    fmax = scales[name]
    if fmax > 0 and dt > 1.0 / (50.0 * fmax):
        raise ConfigError(
            f"dt = {dt:.3e} s is too coarse: binding frequency scale '{name}' at "
            f"{fmax:.3e} Hz requires dt <= {1.0 / (50.0 * fmax):.3e} s")


def _batch_timestep(model: NvModel, stims, dt: float | None) -> float:
    """``dt``, or by default the finest default step of the batch, checked for every stimulus.

    An empty batch is checked as one run without a stimulus.
    """
    stims = list(stims) or [None]
    if dt is None:
        dt = min(default_timestep(model, s) for s in stims)
    for s in stims:
        _check_timestep(model, s, dt)
    return dt


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


def _step_unitaries(e_plus, e_minus, theta):
    """Row-major components of each step's unitary ``P R(theta) P``, ``P = diag(e+, 1, e-)``.

    ``R(theta) = exp(-i theta Sx) = [[1-g, q, -g], [q, c, q], [-g, q, 1-g]]``
    in the Sz = +1, 0, -1 order, with ``c = cos(theta)``,
    ``g = sin(theta/2)^2`` and ``q = -i sin(theta)/sqrt(2)``.  All inputs
    and outputs share one shape and every operation is elementwise.
    """
    g = np.sin(0.5 * theta) ** 2
    q = (-1j / math.sqrt(2.0)) * np.sin(theta)
    q_plus, q_minus = q * e_plus, q * e_minus
    corner = -g * (e_plus * e_minus)
    return ((1.0 - g) * (e_plus * e_plus), q_plus, corner,
            q_plus, np.cos(theta).astype(complex), q_minus,
            corner, q_minus, (1.0 - g) * (e_minus * e_minus))


def _matmul(left, right):
    """Component-wise 3x3 products ``left @ right`` of two row-major 9-tuples of arrays."""
    return tuple(left[3 * i] * right[j] + left[3 * i + 1] * right[3 + j]
                 + left[3 * i + 2] * right[6 + j] for i in range(3) for j in range(3))


def _matvec(m, v, adjoint=False):
    """``m @ v`` (or ``m^dagger @ v``) for a row-major 9-tuple ``m`` and a 3-tuple ``v``."""
    if adjoint:
        return tuple(np.conj(m[i]) * v[0] + np.conj(m[3 + i]) * v[1]
                     + np.conj(m[6 + i]) * v[2] for i in range(3))
    return tuple(m[3 * i] * v[0] + m[3 * i + 1] * v[1] + m[3 * i + 2] * v[2]
                 for i in range(3))


def _product_tree(us):
    """Yield the levels of the pairwise product tree of a block's step unitaries.

    ``us`` is a row-major 9-tuple of (2^L, runs) arrays in bit-reversed step
    order (:func:`_block_factors`); it is the first level.  In that order
    the neighbouring steps 2j and 2j+1 sit at the same position of the
    first and the second half, so each next level is ``second @ first``
    on contiguous halves, again in bit-reversed order.  The last level is
    the block's product, shape (1, runs).
    """
    yield us
    while len(us[0]) > 1:
        half = len(us[0]) // 2
        us = _matmul([u[half:] for u in us], [u[:half] for u in us])
        yield us


def _power(m, p: int):
    """``m^p`` for a row-major 9-tuple ``m`` and ``p >= 1``, by repeated squaring."""
    out = None
    while True:
        if p & 1:
            out = m if out is None else _matmul(m, out)
        p >>= 1
        if not p:
            return out
        m = _matmul(m, m)


@functools.cache
def _bit_reversal(size: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(size)``, ``size`` a power of two; read-only."""
    perm = np.zeros(1, dtype=np.int64)
    while perm.size < size:
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.flags.writeable = False
    return perm


def _blocks(protocol: Protocol, t0: float, t1: float, dt: float, period: float = math.inf):
    """The step blocks of [t0, t1] as (a, h, pulse_on, phase, first, stop, power) tuples.

    [t0, t1] is cut at window edges (:func:`_spans`) and each span [a, b]
    into ``n = ceil((b - a)/dt)`` equal steps of size ``h = (b - a)/n``; a
    block is up to :data:`_BLOCK_STEPS` consecutive steps ``first .. stop-1``
    of one span, with midpoints ``a + (i + 1/2) h``, applied once
    (``power`` 1).  A driven span of at least two carrier periods ``period``
    whose period of ``k = ceil(period/dt)`` steps fits in one block
    (``k <= _BLOCK_STEPS``) starts with one period of k steps of
    ``h = period/k``, one block applied ``power = floor((b - a)/period)``
    times; the rest of the span is stepped as above.
    """
    out = []
    for a, b, on, phase in _spans(protocol, t0, t1):
        pieces = [(a, b, 1)]
        # the period piece's own step count: (a + period) - a need not be period
        if (on and b - a >= 2.0 * period
                and math.ceil((a + period - a) / dt) <= _BLOCK_STEPS):
            reps = int((b - a) // period)
            pieces = [(a, a + period, reps), (a + reps * period, b, 1)]
        for a, b, power in pieces:
            if b - a <= 0:
                continue
            n = max(1, int(math.ceil((b - a) / dt)))
            h = (b - a) / n
            out.extend((a, h, on, phase, i0, min(i0 + _BLOCK_STEPS, n), power)
                       for i0 in range(0, n, _BLOCK_STEPS))
    return out


def _block_factors(model: NvModel, field, block):
    """Step factors of one block for every run of ``field``, in bit-reversed step order.

    The block is padded with identity steps to a power-of-two length and
    put in bit-reversed order (:func:`_product_tree`).  Returns
    ``(real, tm, e_plus, e_minus, us)``: ``real`` marks the block's own
    steps among the positions, ``tm`` the (positions,) midpoints,
    ``e+- = exp(-i h (D +- z)/2)`` (positions, runs), and the 9 components
    of the unitaries (:func:`_step_unitaries`).  A padding step has
    ``e+- = 1`` and ``theta = 0``, so its unitary is the identity and the
    tree's products are exact over it.
    """
    a, h, on, phase, first, stop, _ = block
    perm = _bit_reversal(1 << (stop - first - 1).bit_length())
    real = perm < stop - first
    tm = a + (first + perm + 0.5) * h
    bs = np.ascontiguousarray(field(tm).T)
    z = model.gamma_e * (model.b0 + bs * math.cos(model.chi))
    e_plus = np.exp(-0.5j * h * (model.d + z))
    e_minus = np.exp(-0.5j * h * (model.d - z))
    if on:
        drive = model.gamma_e * model.b1 * np.cos(model.carrier * tm + phase)
    else:
        drive = np.zeros(tm.size)
    theta = h * (drive[:, None] + model.gamma_e * bs * math.sin(model.chi))
    if not real.all():
        pad = ~real
        e_plus[pad] = e_minus[pad] = 1.0
        theta[pad] = 0.0
    return real, tm, e_plus, e_minus, _step_unitaries(e_plus, e_minus, theta)


def _block_products(model: NvModel, field, blocks):
    """Yield the product of each block's step unitaries, raised to the block's ``power``.

    Each product holds every run of ``field`` (:func:`_blocks`).
    """
    for block in blocks:
        for top in _product_tree(_block_factors(model, field, block)[-1]):
            pass
        yield _power(top, block[-1])


def _evolve_batch(model: NvModel, stims, protocol: Protocol, t0: float, t1: float,
                  dt: float, psis: np.ndarray) -> np.ndarray:
    """Strang-split stepping of a batch of runs sharing the time grid, by block products.

    ``stims`` is a sequence of Stimulus or None, one per row of ``psis``.
    [t0, t1] is cut at window edges (:func:`_spans`) and each span into
    ``n = ceil(span/dt)`` equal steps of size h.  A step with midpoint t_m is
    ``psi <- exp(-i Delta h/2) R(theta) exp(-i Delta h/2) psi`` with
    ``Delta = diag(D + z, 0, D - z)``, ``z = ge (B0 + b_s(t_m) cos chi)`` and
    ``theta = h (ge B1 cos(carrier t_m + phase) + ge b_s(t_m) sin chi)``,
    the drive term counting only inside a pulse window.  Its local error
    against ``exp(-i H(t_m) h)`` is O(h^3), so the scheme is second order,
    and every factor is unitary up to rounding.

    A run whose stimulus is None or constant steps each driven span of at
    least two carrier periods T, when ``k = ceil(T/dt)`` is at most
    :data:`_BLOCK_STEPS`, on a grid commensurate with the carrier instead:
    k steps of ``T/k`` per period from the span start, one period's
    product raised to the ``floor(span/T)``-th power by repeated squaring,
    then the rest of the span as above.

    The steps go in blocks of :data:`_BLOCK_STEPS` (:func:`_blocks`).  For
    each block, every step's 3x3 unitary is built in closed form for all
    runs at once, the block's product is formed by pairwise (tree)
    reduction (:func:`_product_tree`), and the product is applied to the
    states.  The periodic runs and then the others go through in chunks of
    :data:`_CHUNK_RUNS` runs, so memory is bounded by one block of one
    chunk for any span and batch.  A run's grid and the block length do not
    depend on the batch and every operation is elementwise over runs, so a
    batched result has the same bits as the same run on its own.
    """
    psis = np.asarray(psis, dtype=complex)
    out = psis.copy()
    periodic = [s is None or s.kind == "constant" for s in stims]
    for flag in (True, False):
        rows = [r for r, f in enumerate(periodic) if f == flag]
        period = TWO_PI / model.carrier if flag and model.carrier > 0 else math.inf
        blocks = _blocks(protocol, t0, t1, dt, period)
        for r0 in range(0, len(rows), _CHUNK_RUNS):
            chunk = rows[r0:r0 + _CHUNK_RUNS]
            field = stimulus_field([stims[r] for r in chunk])
            state = tuple(psis[chunk, k][None, :] for k in range(3))
            for top in _block_products(model, field, blocks):
                state = _matvec(top, state)
            out[chunk] = np.concatenate(state).T
    return out


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
    dt = _batch_timestep(model, stims, dt)
    psi0 = basis_state(protocol.prep)
    psis = np.tile(psi0, (len(stims), 1))
    psis = _evolve_batch(model, stims, protocol, 0.0, protocol.duration, dt, psis)
    idx = _BASIS_INDEX[protocol.readout]
    return 1.0 - np.abs(psis[:, idx]) ** 2


def linear_response(model: NvModel, stims, protocol: Protocol) -> np.ndarray:
    """First-order probability change of :func:`run_protocol_batch` for each stimulus.

    This is the exact linear response of the discrete integrator, from one
    reference run with no stimulus and its adjoint (forward and backward
    propagation; Khaneja et al., J. Magn. Reson. 172, 296 (2005)).  With
    ``a = <readout|psi(T)>``, the state ``psi_n`` after step n and
    ``lam_n = U(T, t_n)^dagger |readout>``, the derivative of ``p = 1 - |a|^2``
    by the stimulus field at the midpoint of step n is

        G_n = -2 Re(conj(a) lam_n^dagger dU_n psi_{n-1}),

    where ``dU_n`` differentiates the Strang step in both places the field
    enters: the ``cos chi`` part in Delta and the ``sin chi`` part in theta.
    A stimulus's response is ``sum_n G_n b(t_n)`` on the plain grid of
    :func:`_blocks` at ``run_protocol_batch``'s default ``dt`` for the same
    stimuli, the grid it steps every stimulus on but a constant one.

    The steps share :func:`_evolve_batch`'s blocks and product trees.  A
    forward pass keeps the state at each block start; a backward pass over
    the blocks rebuilds each tree and walks it down to the states before
    and the adjoint states after every step.  The stimuli are evaluated one
    block and :data:`_CHUNK_RUNS` stimuli at a time, so memory is bounded
    per block for any protocol length and stimulus count.
    """
    dt = _batch_timestep(model, stims, None)
    blocks = _blocks(protocol, 0.0, protocol.duration, dt)
    no_field = stimulus_field([None])
    psi = tuple(np.full((1, 1), x) for x in basis_state(protocol.prep))
    starts = []
    for top in _block_products(model, no_field, blocks):
        starts.append(psi)
        psi = _matvec(top, psi)
    a_conj = np.conj(psi[_BASIS_INDEX[protocol.readout]])
    lam = tuple(np.full((1, 1), x) for x in basis_state(protocol.readout))
    kappa = 0.5 * model.gamma_e * math.cos(model.chi)
    sigma = model.gamma_e * math.sin(model.chi) / math.sqrt(2.0)
    out = np.zeros(len(stims))
    for block, psi_before in zip(reversed(blocks), reversed(starts)):
        real, tm, e_plus, e_minus, us = _block_factors(model, no_field, block)
        levels = list(_product_tree(us))
        lam_after = lam
        lam = _matvec(levels[-1], lam, adjoint=True)
        for u in reversed(levels[:-1]):
            half = len(u[0]) // 2
            earlier, later = [x[:half] for x in u], [x[half:] for x in u]
            psi_before = tuple(map(np.concatenate, zip(
                psi_before, _matvec(earlier, psi_before))))
            lam_after = tuple(map(np.concatenate, zip(
                _matvec(later, lam_after, adjoint=True), lam_after)))
        (pp, p0, pm), (lp, l0, lm) = _matvec(us, psi_before), lam_after
        lam_before = _matvec(us, lam_after, adjoint=True)
        # dU/db = -i h kappa (Sz U + U Sz) - i h sqrt(2) sigma P Sx R P, so
        # lam_n^dagger dU psi_{n-1} = -i h (kappa sz + sigma sx) with
        # sz = lam_n^dagger Sz psi_n + lam_{n-1}^dagger Sz psi_{n-1} and
        # sx = sqrt(2) (P* lam_n)^dagger Sx (P* psi_n), as R P psi_{n-1} = P* psi_n
        sz = (np.conj(lp) * pp - np.conj(lm) * pm + np.conj(lam_before[0]) * psi_before[0]
              - np.conj(lam_before[2]) * psi_before[2])
        sx = ((e_plus * np.conj(lp) + e_minus * np.conj(lm)) * p0
              + np.conj(l0) * (np.conj(e_plus) * pp + np.conj(e_minus) * pm))
        h = block[1]
        grad = (-2.0 * h) * (a_conj * (kappa * sz + sigma * sx)).imag[:, 0]
        grad[~real] = 0.0
        # each chunk's parameters are gathered again for every block: one
        # field kept per chunk for the whole pass holds about 1.4 kB per
        # chunk, 0.9 MB more traced peak at 2000 stimuli
        for j in range(0, len(stims), _CHUNK_RUNS):
            out[j:j + _CHUNK_RUNS] += stimulus_field(stims[j:j + _CHUNK_RUNS])(tm) @ grad
    return out
