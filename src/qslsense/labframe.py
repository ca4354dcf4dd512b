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
*upper* Zeeman branch: its energy is D + ge B0, so :class:`NvModel`'s carrier
is resonant with ms0 <-> ms-1 by construction, ``carrier = D + ge B0`` with
ge = :data:`GAMMA_E`.  Index map: ms_minus1 -> 0, ms0 -> 1, ms_plus1 -> 2.

The driven Rabi frequency is ``ge B1 / sqrt(2)`` (:attr:`NvModel.rabi`): the
spin-1 Sx matrix element between ms0 and ms+-1 is 1/sqrt(2), i.e. sqrt(2)
larger than the spin-1/2 element, and the rotating-wave factor 1/2 of the
cosine drive leaves ge B1 / sqrt(2) as the observed oscillation frequency.

Integration uses a symmetric (Strang) split of H, sampled at the step
midpoint t_m, into its diagonal part and its one Sx term:

    psi <- exp(-i Delta h/2) R(theta) exp(-i Delta h/2) psi,
    Delta = diag(D + z, 0, D - z),   z = ge (B0 + Bstim(t_m) cos(chi)),
    theta = h (ge B1 m(t_m) + ge Bstim(t_m) sin(chi)),

where ``R(theta) = exp(-i theta Sx)`` has the spin-1 closed form
``1 - i sin(theta) Sx + (cos(theta) - 1) Sx^2``, so no eigensolver runs.
The split differs from ``exp(-i H(t_m) h)`` by O(h^3) per step, so the
scheme is second order.  Every factor is unitary, so the norm drifts by
rounding alone (:data:`NORM_DRIFT_TOL`).  In the frame rotating with Delta
the split is the midpoint rule, so its leading error comes from the fast
counter-rotating part of the drive: strongly driven models (a Rabi rate
that is a sizeable fraction of the carrier) carry more of it than weakly
driven ones.  The step is 1/(100 f_max) where f_max is the largest
cycle-frequency scale in the problem (:func:`default_timestep`).

Steps are not applied one at a time.  For a block of up to 1024 steps,
each step's 3x3 unitary ``P R(theta) P`` (``P = exp(-i Delta h/2)``) is
built in closed form for every run at once, the block's product is formed
by pairwise (tree) reduction, and the product is applied to the states.
Runs go through in chunks of a fixed number of runs, and consecutive
blocks of a chunk share one tree of at most :data:`_TREE_ENTRIES` entries,
each padded with identity steps to the longest one's power of two, so
memory is bounded by one tree for any protocol and batch.  A run with
no stimulus or a constant one sees an H that is periodic in the carrier
inside a pulse window, so a window of at least two carrier periods, whose
period fits in one block, is stepped on a grid commensurate with the
carrier and one period's product is raised to the number of whole periods
by repeated squaring (Shirley, Phys. Rev. 138, B979 (1965)).  Each run's
grid depends only on the run, a block's product (read at its tree's top)
has the same bits in any batch and group, as identity padding multiplies
exactly, and each run's arithmetic is elementwise and independent of the
other runs, so a batched result is bit-identical to the same run on its own.

:func:`linear_response` gives the integrator's exact first-order response
to any number of stimuli in 16 B per step, from one reference run and its
adjoint, both propagated forward on the same blocks.  Both entry points
refuse a run of over :data:`MAX_RUN_STEPS` built steps in :func:`_blocks`.

Carrier phase convention: the second pulse window of the two-pulse protocol
is carrier-phase-shifted by -pi/2, which reproduces the rotating-frame axis
convention of :mod:`qslsense.sequence` including the sign of the
signal-induced probability change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import NumericError
from .units import ConfigError

TWO_PI = 2.0 * math.pi

GAMMA_E_CYCLES_PER_TESLA = 28.0345e9   # Hz/T, cycle frequency
D_NV_CYCLES = 2.87e9                   # Hz, cycle frequency
#: electron gyromagnetic ratio ge (rad/s per tesla)
GAMMA_E = TWO_PI * GAMMA_E_CYCLES_PER_TESLA
#: a Gaussian's area over amplitude * fwhm, sqrt(pi / (4 ln 2))
GAUSS_AREA = math.sqrt(math.pi / (4.0 * math.log(2.0)))
#: most steps a lab run may build (:func:`_blocks`) or a rotating-frame run may take
MAX_RUN_STEPS = 10**6
#: largest drift of a final state's norm from 1 that :func:`run_protocol_batch` returns
NORM_DRIFT_TOL = 1e-6

#: carrier phase of the second pulse window relative to the first
PHASE_JUMP = -math.pi / 2

_BASIS_INDEX = {"ms_minus1": 0, "ms0": 1, "ms_plus1": 2}

#: time steps per block of step unitaries (:func:`_blocks`)
_BLOCK_STEPS = 1024
#: runs per chunk (4 runs, 4096 entries per 1024-step block, took about
#: 0.5 MB more peak memory in `fig4d` plus `offaxis`)
_CHUNK_RUNS = 3
#: (steps x blocks x runs) entries at most per product tree (:func:`_groups`),
#: one 1024-step block of a full chunk
_TREE_ENTRIES = _BLOCK_STEPS * _CHUNK_RUNS
#: (stimuli x steps) entries at most per chunk of :func:`linear_response`'s
#: Gaussians: a chunk spans at most every step, so it holds this // steps
_CONTRACT_ENTRIES = 2**13


def _require_finite(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class NvModel:
    """Static model parameters in angular units (rad/s, rad, tesla); the carrier is derived."""

    d: float = TWO_PI * D_NV_CYCLES
    b0: float = 0.0
    b1: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        _require_finite(d=self.d, b0=self.b0, b1=self.b1, chi=self.chi,
                        carrier=self.carrier, rabi=self.rabi)
        if self.d <= 0:
            raise ValueError(f"zero-field splitting must be > 0, got {self.d}")
        if self.b0 < 0 or self.b1 < 0:
            raise ValueError("field magnitudes must be >= 0")
        if not 0.0 <= self.chi <= math.pi / 2:
            raise ValueError(f"chi must lie in [0, pi/2], got {self.chi}")

    @property
    def carrier(self) -> float:
        """The drive's carrier, resonant with ms0 <-> ms-1: ``D + ge B0`` (rad/s)."""
        return self.d + GAMMA_E * self.b0

    @property
    def rabi(self) -> float:
        """Observed ms0 <-> ms-1 oscillation frequency, ``ge B1 / sqrt(2)`` (rad/s)."""
        return GAMMA_E * self.b1 / math.sqrt(2.0)

    @classmethod
    def resonant(cls, rabi: float, b0: float, d: float = TWO_PI * D_NV_CYCLES,
                 chi: float = 0.0) -> "NvModel":
        """Model driven at Rabi rate ``rabi`` (rad/s) with axial bias ``b0`` (tesla)."""
        return cls(d=d, b0=b0, b1=math.sqrt(2.0) * rabi / GAMMA_E, chi=chi)


@dataclass(frozen=True, slots=True)
class Stimulus:
    """Time-domain field waveform to be sensed, amplitude in tesla.

    kind "gaussian": amplitude * exp(-4 ln2 (t - center)^2 / fwhm^2).
    kind "sinusoid": amplitude * sin(frequency * t + phase); :meth:`constant`
    is the sinusoid of frequency 0 at phase pi/2, exactly ``amplitude``.
    """

    kind: str
    amplitude: float
    center: float = 0.0
    fwhm: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "sinusoid"):
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        _require_finite(amplitude=self.amplitude, center=self.center, fwhm=self.fwhm,
                        frequency=self.frequency, phase=self.phase)
        if self.kind == "gaussian" and self.fwhm <= 0:
            raise ValueError("gaussian stimulus needs fwhm > 0")
        if self.kind == "sinusoid" and self.frequency < 0:
            raise ValueError("sinusoid frequency must be >= 0")

    @classmethod
    def constant(cls, amplitude: float) -> "Stimulus":
        return cls("sinusoid", amplitude, phase=math.pi / 2)

    @classmethod
    def gaussian(cls, amplitude: float, center: float, fwhm: float) -> "Stimulus":
        return cls("gaussian", amplitude, center=center, fwhm=fwhm)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float, phase: float = 0.0) -> "Stimulus":
        return cls("sinusoid", amplitude, frequency=frequency, phase=phase)

    def area(self) -> float:
        """Integral of the waveform over all time (tesla * s); gaussian only."""
        if self.kind != "gaussian":
            raise ValueError(f"area is only defined for gaussian stimuli, not {self.kind!r}")
        return self.amplitude * self.fwhm * GAUSS_AREA


def stimulus_field(stims):
    """Return ``field(t)``, the field values (tesla) of a batch of stimuli.

    ``t`` is either one time axis shared by every run, shape (T,), giving
    shape (runs, T), or one column of times per run for the first k runs,
    shape (T, k), giving shape (T, k).  A None entry gives zeros.  The
    stimuli's parameters are gathered once, by kind, so a stepper can call
    ``field`` once per block of times.  The stimuli of one kind are
    evaluated as one broadcast array with elementwise operations only, so a
    run has the same bits in any batch and for either shape of ``t``.
    """
    rows_of = {}
    for k, stim in enumerate(stims):
        if stim is not None:
            rows_of.setdefault(stim.kind, []).append(k)
    groups = []
    for kind, rows in rows_of.items():
        # fwhm**2 stays a Python float power: pow(x, 2) and x*x differ in
        # the last bit for about one value in 1200; a tuple per row, not a
        # list, as fig3b gathers 616 rows at once
        params = np.array([(stims[k].amplitude, stims[k].center, stims[k].fwhm**2,
                            stims[k].frequency, stims[k].phase) for k in rows])
        groups.append((kind, np.array(rows), *params.T[:, :, None]))  # (rows, 1) columns

    def field(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        n = t.shape[1] if t.ndim == 2 else len(stims)
        out = np.zeros(t.shape if t.ndim == 2 else (n, len(t)))
        for kind, rows, *params in groups:
            if rows[0] >= n:  # none of the kind's rows is among the first n
                continue
            if rows[-1] >= n:  # keep the kind's rows among the first n
                k = np.searchsorted(rows, n)
                rows, params = rows[:k], [p[:k] for p in params]
            if t.ndim == 2:  # the runs' columns, a contiguous range as a slice
                if rows[-1] - rows[0] == len(rows) - 1:
                    rows = slice(rows[0], rows[-1] + 1)
                rows, params = (slice(None), rows), [p.T for p in params]
            amplitude, center, fwhm_sq, frequency, phase = params
            tk = t[rows] if t.ndim == 2 else t
            if kind == "gaussian":
                out[rows] = amplitude * np.exp(-4.0 * math.log(2.0) * (tk - center) ** 2 / fwhm_sq)
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
    """Pulse windows plus the basis label prepared and read out."""

    windows: tuple[PulseWindow, ...]
    prep: str = "ms0"

    def __post_init__(self):
        if self.prep not in _BASIS_INDEX:
            raise ValueError(f"prep must be one of {sorted(_BASIS_INDEX)}, got {self.prep!r}")
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
    """Two equal pulse windows over [0, tau], second carrier-phase-shifted by :data:`PHASE_JUMP`."""
    _require_finite(tau=tau)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    windows = (PulseWindow(0.0, tau / 2, 0.0), PulseWindow(tau / 2, tau, PHASE_JUMP))
    return Protocol(windows, prep=prep)


def basis_state(label: str) -> np.ndarray:
    psi = np.zeros(3, dtype=complex)
    psi[_BASIS_INDEX[label]] = 1.0
    return psi


def frequency_scales(model: NvModel, stim: Stimulus | None = None) -> dict[str, float]:
    """Cycle-frequency scales (Hz) that the integrator must resolve, by name.

    The carrier ``D + ge B0`` bounds both D and ge B0 (B0 >= 0), so it stands for them.
    """
    scales = {
        "carrier": model.carrier / TWO_PI,
        "drive_field": GAMMA_E * model.b1 / TWO_PI,
    }
    if stim is not None:
        scales["stimulus_field"] = GAMMA_E * abs(stim.amplitude) / TWO_PI
        if stim.kind == "sinusoid":
            scales["stimulus_frequency"] = stim.frequency / TWO_PI
        elif stim.kind == "gaussian":
            scales["stimulus_bandwidth"] = 1.0 / stim.fwhm / TWO_PI
    return scales


def default_timestep(model: NvModel, stim: Stimulus | None = None,
                     factor: float = 100.0) -> float:
    """Step 1/(factor * f_max) from the largest frequency scale in the problem.

    f_max is at least the carrier, > 0; if ``factor * f_max`` overflows, the step is 0.
    """
    return 1.0 / (factor * max(frequency_scales(model, stim).values()))


def step_count(span: float, dt: float):
    """``ceil(span / dt)``, or past 10^15 steps the unrounded quotient, which may be inf."""
    n = span / dt if dt > 0 else math.inf
    return math.ceil(n) if n <= 1e15 else n


def too_many_steps(steps, dt: float, scales: dict[str, float]) -> ConfigError:
    """The ConfigError refusing a run of ``steps`` steps of ``dt`` (3 digits past 10^15)."""
    name = max(scales, key=scales.get)
    count = f"{steps:.3g}" if steps > 1e15 else steps
    return ConfigError(f"a run of {count} steps of {dt:.3e} s is more than {MAX_RUN_STEPS}: "
                       f"binding frequency scale '{name}' at {scales[name]:.3e} Hz")


def _batch_timestep(model: NvModel, stims) -> float:
    """The finest default step of the batch, or of one run without a stimulus if it is empty."""
    return min(default_timestep(model, s) for s in list(stims) or [None])


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


def _matvec(m, v):
    """``m @ v`` for a row-major 9-tuple ``m`` and a 3-tuple ``v``."""
    return tuple(m[3 * i] * v[0] + m[3 * i + 1] * v[1] + m[3 * i + 2] * v[2]
                 for i in range(3))


def _product_tree(us):
    """Yield the levels of the pairwise product tree of a group of blocks' step unitaries.

    ``us`` is a row-major 9-tuple of (2^L, blocks, runs) arrays in bit-reversed
    step order (:func:`_block_factors`); it is the first level.  In that order
    the neighbouring steps 2j and 2j+1 sit at the same position of the
    first and the second half, so each next level is ``second @ first``
    on contiguous halves, again in bit-reversed order.  Column b of the last
    level, the top, is block b's product, as identity padding multiplies exactly.
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


def _blocks(model: NvModel, stims, protocol: Protocol, t0: float, t1: float, dt: float,
            period: float = math.inf):
    """The step blocks of [t0, t1] as (a, h, pulse_on, phase, first, stop, power) tuples.

    Each span [a, b] of [t0, t1] (:func:`_spans`) is ``n = step_count(b - a, dt)``
    steps of ``h = (b - a)/n``, in blocks of up to :data:`_BLOCK_STEPS` steps
    ``first .. stop-1`` (midpoints ``a + (i + 1/2) h``) applied once.  A driven
    span of two or more carrier periods ``period`` whose ``step_count(period, dt)``
    steps fit in one block is one period's block applied ``floor((b - a)/period)``
    times, then the rest.  More than :data:`MAX_RUN_STEPS` steps to build (a powered
    period counted once) are refused first; ConfigError names ``stims``' binding scale.
    """
    pieces = []
    for a, b, on, phase in _spans(protocol, t0, t1):
        parts = [(a, b, 1)]
        # the period piece's own step count: (a + period) - a need not be period
        if on and b - a >= 2.0 * period and step_count(a + period - a, dt) <= _BLOCK_STEPS:
            reps = int((b - a) // period)
            parts = [(a, a + period, reps), (a + reps * period, b, 1)]
        pieces.extend((a, b, on, phase, power, max(1, step_count(b - a, dt)))
                      for a, b, power in parts if b - a > 0)
    steps = sum(piece[-1] for piece in pieces)
    if steps > MAX_RUN_STEPS:
        binding = min(stims, key=lambda s: default_timestep(model, s), default=None)
        raise too_many_steps(steps, dt, frequency_scales(model, binding))
    return [(a, (b - a) / n, on, phase, i0, min(i0 + _BLOCK_STEPS, n), power)
            for a, b, on, phase, power, n in pieces for i0 in range(0, n, _BLOCK_STEPS)]


def _log_length(block) -> int:
    """log2 of a block's step count rounded up to a power of two."""
    return (block[5] - block[4] - 1).bit_length()


def _groups(blocks, runs: int):
    """Split ``blocks`` into the fewest lists of consecutive blocks that fit one tree each.

    A tree counts each block at the longest block's power of two and holds at
    most :data:`_TREE_ENTRIES` (steps x blocks x ``runs``) entries; the
    lists' lengths differ by at most one.
    """
    most = max(1, _TREE_ENTRIES // (runs << max(map(_log_length, blocks), default=0)))
    each = -(-len(blocks) // -(-len(blocks) // most)) if blocks else 1
    return [blocks[i:i + each] for i in range(0, len(blocks), each)]


def _block_factors(model: NvModel, field, group):
    """Step factors of a group of blocks for every run of ``field``, in bit-reversed step order.

    Each (block, run) pair is a column of (positions, blocks, runs) arrays,
    each block padded with identity steps to the group's longest power of
    two (:func:`_product_tree`).  Returns ``(h, tm, pad, e_plus, e_minus, us)``:
    the (blocks,) steps, the (positions, blocks) midpoints and padding mask,
    ``e+- = exp(-i h (D +- z)/2)`` and the 9 components of the unitaries
    (:func:`_step_unitaries`).  A padding step has ``e+- = 1`` and
    ``theta = 0``, so its unitary is the identity, and multiplying by it is
    exact (``1 p + 0 q + 0 r`` is ``p``) whatever a block is grouped with.
    """
    a, h, on, phase, first, stop, _ = map(np.array, zip(*group))
    perm = _bit_reversal(1 << max(map(_log_length, group)))[:, None]
    tm = a + (first + perm + 0.5) * h
    bs = np.ascontiguousarray(field(tm.ravel()).reshape(-1, *tm.shape).transpose(1, 2, 0))
    z = GAMMA_E * (model.b0 + bs * math.cos(model.chi))
    e_plus = np.exp(-0.5j * h[:, None] * (model.d + z))
    e_minus = np.exp(-0.5j * h[:, None] * (model.d - z))
    drive = np.where(on, GAMMA_E * model.b1 * np.cos(model.carrier * tm + phase), 0.0)
    theta = h[:, None] * (drive[:, :, None] + GAMMA_E * bs * math.sin(model.chi))
    pad = perm >= stop - first
    e_plus[pad] = e_minus[pad] = 1.0
    theta[pad] = 0.0
    return h, tm, pad, e_plus, e_minus, _step_unitaries(e_plus, e_minus, theta)


def _block_products(model: NvModel, field, groups):
    """Yield each block's product raised to its ``power``, read from its group's tree's top."""
    for group in groups:
        for top in _product_tree(_block_factors(model, field, group)[-1]):
            pass  # one level alive at a time; the last is the top
        for b, block in enumerate(group):
            yield _power(tuple(u[:, b] for u in top), block[-1])


def _evolve_batch(model: NvModel, stims, protocol: Protocol, t0: float, t1: float,
                  dt: float, psis: np.ndarray) -> np.ndarray:
    """Strang-split stepping of a batch of runs sharing the time grid, by block products.

    ``stims`` holds a Stimulus or None per row of ``psis``.  The runs whose
    stimulus is None or of frequency 0 (powered carrier periods), then the others,
    each group only if it holds a run, step on their own :func:`_blocks` in chunks
    of :data:`_CHUNK_RUNS` runs, a chunk's blocks in few trees (:func:`_groups`).
    """
    out = np.array(psis, dtype=complex)  # each row is read once, then overwritten
    periodic = [s is None or (s.kind == "sinusoid" and s.frequency == 0) for s in stims]
    for flag in sorted(set(periodic), reverse=True):
        rows = [r for r, f in enumerate(periodic) if f == flag]
        period = TWO_PI / model.carrier if flag else math.inf
        blocks = _blocks(model, stims, protocol, t0, t1, dt, period)
        for r0 in range(0, len(rows), _CHUNK_RUNS):
            chunk = rows[r0:r0 + _CHUNK_RUNS]
            field = stimulus_field([stims[r] for r in chunk])
            state = tuple(out[chunk, k][None, :] for k in range(3))
            for top in _block_products(model, field, _groups(blocks, len(chunk))):
                state = _matvec(top, state)
            out[chunk] = np.concatenate(state).T
    return out


def run_protocol_batch(model: NvModel, stims, protocol: Protocol) -> np.ndarray:
    """Run one protocol for several stimuli at once; returns one probability per stimulus.

    Each entry of ``stims`` may be a Stimulus or None (reference run).  Runs
    are independent and results identical to serial single runs.  Every run
    steps with the batch's finest default step (:func:`default_timestep`);
    one of more than :data:`MAX_RUN_STEPS` steps is refused (:func:`_blocks`), and so
    is a batch whose final norm drifts by more than :data:`NORM_DRIFT_TOL`.
    """
    dt = _batch_timestep(model, stims)
    psis = np.tile(basis_state(protocol.prep), (len(stims), 1))
    psis = _evolve_batch(model, stims, protocol, 0.0, protocol.duration, dt, psis)
    drift = np.abs(np.linalg.norm(psis, axis=1) - 1.0).max(initial=0.0)
    if not drift <= NORM_DRIFT_TOL:
        raise NumericError(f"a final state's norm drifts by {drift:.3e}, more than "
                           f"{NORM_DRIFT_TOL:g}, over the {protocol.duration:.3e} s protocol")
    return 1.0 - np.abs(psis[:, _BASIS_INDEX[protocol.prep]]) ** 2


def linear_response(model: NvModel, stims, protocol: Protocol) -> np.ndarray:
    """First-order probability change of :func:`run_protocol_batch` for each stimulus.

    This is the exact linear response of the discrete integrator, from one
    reference run with no stimulus and its adjoint (Khaneja et al., J. Magn.
    Reson. 172, 296 (2005)), both propagated forward (:func:`_adjoint_kernel`).
    With ``a = <prep|psi(T)>``, the state ``psi_n`` after step n and
    ``lam_n = U(T, t_n)^dagger |prep>``, the derivative of ``p = 1 - |a|^2``
    by the stimulus field at the midpoint of step n is

        G_n = -2 Re(conj(a) lam_n^dagger dU_n psi_{n-1}),

    where ``dU_n`` differentiates the Strang step in both places the field
    enters: the ``cos chi`` part in Delta and the ``sin chi`` part in theta.
    A stimulus's response is ``sum_n G_n b(t_n)`` on the plain grid of
    :func:`_blocks` at the batch's finest default step, the only step either
    this or :func:`run_protocol_batch` takes for the same stimuli; the latter
    steps all but a sinusoid of frequency 0 on that grid.  Both are refused
    past :data:`MAX_RUN_STEPS` steps by :func:`_blocks`, per step it builds.

    G and the step times take 16 B per step (62 kB for the 3870 steps of a
    10 ns lab kernel) for any stimulus count.  The sinusoids of a frequency
    w share ``sum G sin(w t)`` and ``sum G cos(w t)``.  The Gaussians go in
    chunks of consecutive ones (:data:`_CONTRACT_ENTRIES`), each summed over
    the span of steps that holds every step within 6 FWHM of a centre of
    its chunk; beyond 6 FWHM a Gaussian is below 5e-44 of its peak.
    """
    if len(stims) == 0:
        return np.empty(0)
    t, g = _adjoint_kernel(model, stims, protocol, _batch_timestep(model, stims))
    out = np.zeros(len(stims))
    sums, rows, edges = {}, [], []
    for k, s in enumerate(stims):
        if s is None or s.amplitude == 0.0:
            continue  # no field: a change of exactly 0, and no chunk's span widened
        if s.kind == "gaussian":
            rows.append(k)
            edges.append((s.center - 6.0 * s.fwhm, s.center + 6.0 * s.fwhm))
        else:
            w = s.frequency
            if w not in sums:
                units = [Stimulus.sinusoid(1.0, w, phase) for phase in (0.0, math.pi / 2)]
                sums[w] = stimulus_field(units)(t) @ g
            # A sin(w t + phi) = A (cos(phi) sin(w t) + sin(phi) cos(w t))
            out[k] = s.amplitude * (math.cos(s.phase) * sums[w][0] + math.sin(s.phase) * sums[w][1])
    first, stop = np.searchsorted(t, np.reshape(edges, (-1, 2)).T)
    per = max(1, _CONTRACT_ENTRIES // max(len(t), 1))  # t is empty for a protocol of no duration
    for i in range(0, len(rows), per):
        a, b = first[i:i + per].min(), stop[i:i + per].max()
        field = stimulus_field([stims[k] for k in rows[i:i + per]])(t[a:b])
        out[rows[i:i + per]] = field @ g[a:b]
    return out


def _adjoint_kernel(model: NvModel, stims, protocol: Protocol, dt: float):
    """``(t, G)`` of :func:`linear_response`: the plain grid's step midpoints, increasing.

    Both passes run forward on :func:`_evolve_batch`'s blocks and product trees,
    as ``lam_n = U(t_n, 0) U(T, 0)^dagger |prep>``: the first takes the basis states
    to the prep row of U(T, 0), hence ``a`` and ``lam_0``, the second walks ``psi``
    and ``lam`` through each block (:func:`_block_overlaps`).  ``stims`` name a refusal's scale.
    """
    groups = _groups(_blocks(model, stims, protocol, 0.0, protocol.duration, dt), 1)
    no_field = stimulus_field([None])
    j = _BASIS_INDEX[protocol.prep]
    u = tuple(np.eye(3, dtype=complex)[k:k + 1] for k in range(3))  # run r starts at |r>
    for top in _block_products(model, no_field, groups):
        u = _matvec(top, u)
    # psi and lam_0 as the two columns of each component
    state = tuple(np.array([[x, np.conj(u[j][0, k])]])
                  for k, x in enumerate(basis_state(protocol.prep)))
    parts = [(np.empty(0), np.empty(0))]  # a protocol of no duration has no block
    for group in groups:  # one group's per-step states at a time
        tm, g, state = _block_overlaps(model, no_field, group, state, np.conj(u[j][0, j]))
        parts.append((tm, g))
    return tuple(map(np.concatenate, zip(*parts)))


def _block_overlaps(model: NvModel, field, group, state, a_conj):
    """Walk a group's tree down to ``psi`` and ``lam`` before every step, from those at its start.

    ``state`` holds ``psi`` and ``lam`` as the two columns of each component;
    the blocks chain by their products, the columns of the tree's top.  Returns
    ``(t, G, state)``: the midpoints and ``G_n = -2 h Im(conj(a) s_n)``, with
    ``s_n = i lam_n^dagger dU_n psi_{n-1} / h``, in step order, and the states after.
    """
    h, tm, pad, e_plus, e_minus, us = _block_factors(model, field, group)
    levels, starts = list(_product_tree(us)), []
    top = levels.pop()
    for b in range(len(group)):
        starts.append(state)
        state = _matvec(tuple(u[:, b] for u in top), state)
    before = tuple(np.stack(c, axis=1) for c in zip(*starts))  # (1, blocks, 2) each
    while levels:  # each level is dropped once walked
        earlier = [x[:len(x) // 2] for x in levels.pop()]
        before = tuple(map(np.concatenate, zip(before, _matvec(earlier, before))))
    # p, l: psi_n and lam_n by component (+1, 0, -1); q, k: psi_{n-1} and lam_{n-1}
    (pp, lp), (p0, l0), (pm, lm), (qp, kp), _, (qm, km) = (
        (x[..., :1], x[..., 1:]) for x in _matvec(us, before) + before)
    kappa = 0.5 * GAMMA_E * math.cos(model.chi)
    sigma = GAMMA_E * math.sin(model.chi) / math.sqrt(2.0)
    # dU/db = -i h kappa (Sz U + U Sz) - i h sqrt(2) sigma P Sx R P, so
    # lam_n^dagger dU psi_{n-1} = -i h (kappa sz + sigma sx) with
    # sz = lam_n^dagger Sz psi_n + lam_{n-1}^dagger Sz psi_{n-1} and
    # sx = sqrt(2) (P* lam_n)^dagger Sx (P* psi_n), as R P psi_{n-1} = P* psi_n
    sz = np.conj(lp) * pp - np.conj(lm) * pm + np.conj(kp) * qp - np.conj(km) * qm
    sx = ((e_plus * np.conj(lp) + e_minus * np.conj(lm)) * p0
          + np.conj(l0) * (np.conj(e_plus) * pp + np.conj(e_minus) * pm))
    g = (-2.0 * h) * (a_conj * (kappa * sz + sigma * sx)[..., 0]).imag
    steps = _bit_reversal(len(tm))  # step i sits at position steps[i]; an involution
    real = ~pad[steps].T
    return tm[steps].T[real], g[steps].T[real], state
