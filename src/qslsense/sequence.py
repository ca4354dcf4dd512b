"""Rotating-frame control sequences for a spin-1/2 probe.

A sequence is an ordered list of piecewise-constant segments.  Each segment
evolves the state under ``H = dw Sz + Om (Sy cos(theta) + Sx sin(theta))``
for its duration, so propagation is a product of exact matrix exponentials
with no integrator or step size anywhere.  That makes this module the
error-free reference against which both the closed forms in
:mod:`qslsense.analytic` and the lab-frame integrator in
:mod:`qslsense.labframe` are checked.

The rotation-axis convention (phase 0 = Y axis, phase pi/2 = +X axis,
initial state = upper Sz eigenstate) is the one fixed package-wide in
:mod:`qslsense.analytic`; it reproduces the exact closed-form probability
bit-for-bit, with p = 1/2 - phi/pi at alpha = pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spinlin

_SX, _SY, _SZ = spinlin.spin_operators("half")
KET0 = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant drive interval (durations s, frequencies rad/s)."""

    duration: float
    rabi: float
    phase: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")


@dataclass(frozen=True)
class ControlSequence:
    """Nonempty ordered tuple of segments.

    Zero total duration is tolerated (identity propagation) so degenerate
    limits remain expressible.
    """

    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("a control sequence needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


def make_bipartite(omega: float, tau: float, timeshare: float = 0.5,
                   phase_jump: float = math.pi / 2, detuning: float = 0.0) -> ControlSequence:
    """Two-segment sequence: (k tau, phase 0) then ((1-k) tau, phase theta_jump).

    Defaults reproduce the equal-timeshare, orthogonal-axes sequence.  The
    degenerate splits k = 0 and k = 1 collapse to a single segment.
    """
    if not 0.0 <= timeshare <= 1.0:
        raise ValueError(f"timeshare must lie in [0, 1], got {timeshare}")
    if timeshare == 0.0:
        segs = (PulseSegment(tau, omega, phase_jump, detuning),)
    elif timeshare == 1.0:
        segs = (PulseSegment(tau, omega, 0.0, detuning),)
    else:
        segs = (PulseSegment(timeshare * tau, omega, 0.0, detuning),
                PulseSegment((1.0 - timeshare) * tau, omega, phase_jump, detuning))
    return ControlSequence(segs)


def segment_hamiltonian(seg: PulseSegment) -> np.ndarray:
    """Rotating-frame generator ``dw Sz + Om (Sy cos(theta) + Sx sin(theta))``."""
    return (seg.detuning * _SZ
            + seg.rabi * (math.cos(seg.phase) * _SY + math.sin(seg.phase) * _SX))


def propagate(seq: ControlSequence, initial: np.ndarray) -> np.ndarray:
    """Apply ``exp(-i H_seg t_seg)`` per segment in order; norm is preserved."""
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"expected a spin-1/2 state of shape (2,), got {psi.shape}")
    spinlin.check_state(psi)
    for seg in seq.segments:
        if seg.duration == 0.0:
            continue
        u = spinlin.matexp_antihermitian(segment_hamiltonian(seg), seg.duration)
        psi = u @ psi
    return psi


def transition_probability(seq: ControlSequence) -> float:
    """``1 - |<0|U|0>|^2`` for the sequence started in the upper Sz eigenstate."""
    psi = propagate(seq, KET0)
    return 1.0 - spinlin.overlap_probability(KET0, psi)
