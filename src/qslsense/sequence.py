"""Rotating-frame control sequences for a spin-1/2 probe.

A sequence is a tuple of piecewise-constant segments, applied in order (an
empty one is the identity).  Each segment evolves the state under
``H = dw Sz + Om (Sy cos(theta) + Sx sin(theta))`` for its duration, so
propagation is a product of exact matrix exponentials with no integrator or
step size anywhere.  That makes this module the error-free reference against
which both the closed forms in :mod:`qslsense.analytic` and the lab-frame
integrator in :mod:`qslsense.labframe` are checked.

A segment's ``duration``, ``rabi`` and ``detuning`` may be arrays that
broadcast together, one sequence per element: :func:`propagate` then returns
``(..., 2)`` states and :func:`transition_probability` an array, each element
as if run alone.

The rotation-axis convention (phase 0 = Y axis, phase pi/2 = +X axis,
initial state = upper Sz eigenstate) is the one fixed package-wide in
:mod:`qslsense.analytic`; it reproduces the exact closed-form probability
bit-for-bit, with p = 1/2 - phi/pi at alpha = pi/2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import spinlin

KET0 = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant drive interval (durations s, frequencies rad/s)."""

    duration: float
    rabi: float
    phase: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if not np.all(np.greater_equal(self.duration, 0)):
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if not np.all(np.greater_equal(self.rabi, 0)):
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")


def make_bipartite(omega: float, tau: float, detuning: float = 0.0) -> tuple[PulseSegment, ...]:
    """Equal halves of ``tau``, the second with its drive axis turned by pi/2.

    Other timeshares and phase jumps are in the tests' oracles
    (``tests/oracles.py``), the reference for
    :func:`qslsense.analytic.bipartite_sensitivity`.
    """
    return (PulseSegment(0.5 * tau, omega, 0.0, detuning),
            PulseSegment(0.5 * tau, omega, math.pi / 2, detuning))


def segment_hamiltonian(seg: PulseSegment) -> np.ndarray:
    """Rotating-frame generator ``dw Sz + Om (Sy cos(theta) + Sx sin(theta))``, ``(..., 2, 2)``."""
    return (np.asarray(seg.detuning)[..., None, None] * spinlin.SZ
            + np.asarray(seg.rabi)[..., None, None]
            * (math.cos(seg.phase) * spinlin.SY + math.sin(seg.phase) * spinlin.SX))


def propagate(seq: Sequence[PulseSegment], initial: np.ndarray) -> np.ndarray:
    """Apply ``exp(-i H_seg t_seg)`` per segment in order to ``(..., 2)`` states; norm is kept."""
    psi = np.asarray(initial, dtype=complex)
    if psi.shape[-1:] != (2,):
        raise ValueError(f"expected spin-1/2 states of shape (..., 2), got {psi.shape}")
    spinlin.check_state(psi)
    a0, a1 = psi[..., 0], psi[..., 1]
    for seg in seq:
        if not np.any(seg.duration):
            continue
        u = spinlin.matexp_antihermitian(segment_hamiltonian(seg), seg.duration)
        a0, a1 = (u[..., 0, 0] * a0 + u[..., 0, 1] * a1,
                  u[..., 1, 0] * a0 + u[..., 1, 1] * a1)
    return np.stack([a0, a1], axis=-1)


def transition_probability(seq: Sequence[PulseSegment]) -> float | np.ndarray:
    """``1 - |<0|U|0>|^2`` from the upper Sz eigenstate: a float, or an array for a grid."""
    psi = propagate(seq, KET0)
    spinlin.check_state(psi)
    p = 1.0 - np.minimum(np.abs(psi[..., 0]) ** 2, 1.0)
    return float(p) if p.ndim == 0 else p
