"""Small dense complex linear algebra for spin-1/2 and spin-1 systems.

States are numpy complex128 vectors of length 2 or 3, operators are dense
complex128 matrices.  No sparse structure is used anywhere: every matrix in
this package is at most 3x3, so closed forms beat any general-purpose
machinery.

Conventions
-----------
* hbar = 1; Hermitian generators carry units of rad/s.
* Propagators are ``U = exp(-i H t)``.
* 2x2 exponentials use the exact Pauli decomposition
  ``exp(-i(aI + v.sigma)t) = e^{-iat}(cos|v|t I - i sin|v|t vhat.sigma)``,
  free of series-truncation error, which matters in long step products.
  The spin-1 lab frame builds its 3x3 step unitaries in closed form
  (:func:`qslsense.labframe._step_unitaries`).
"""

from __future__ import annotations

import numpy as np

#: largest |M - M^dag| element accepted as Hermitian
HERMITIAN_TOL = 1e-12
#: largest | ||psi|| - 1 | accepted as normalized
NORM_TOL = 1e-10
#: largest imaginary residue of an expectation value, relative to max(|value|, 1)
IMAG_TOL = 1e-12


class ContractViolation(ValueError):
    """An input violates a numerical contract (hermiticity, normalization, shape)."""


_SX_HALF = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
_SY_HALF = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ_HALF = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

_SQRT2 = np.sqrt(2.0)
_SX_ONE = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
_SY_ONE = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
_SZ_ONE = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)


def spin_operators(spin: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for ``spin`` in {"half", "one"}.

    The matrices are the standard angular-momentum representations with
    ``Sz = diag(1/2, -1/2)`` and ``Sz = diag(1, 0, -1)`` respectively; they
    satisfy ``[Si, Sj] = i eps_ijk Sk``.  Fresh copies are returned so callers
    may scale them in place.
    """
    if spin == "half":
        return _SX_HALF.copy(), _SY_HALF.copy(), _SZ_HALF.copy()
    if spin == "one":
        return _SX_ONE.copy(), _SY_ONE.copy(), _SZ_ONE.copy()
    raise ValueError(f"spin must be 'half' or 'one', got {spin!r}")


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


def check_hermitian(m: np.ndarray) -> None:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        dev = np.max(np.abs(m - m.conj().T))
        raise ContractViolation(f"matrix is not Hermitian (max |M - M^dag| = {dev:.3e})")


def check_state(psi: np.ndarray) -> None:
    nrm = np.linalg.norm(np.asarray(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ContractViolation(f"state is not normalized (||psi|| = {nrm:.12f})")


def su2_propagator(wx, wy, wz, t):
    """Elements ``(u00, u01, u10, u11)`` of ``exp(-i (wx Sx + wy Sy + wz Sz) t)``, spin-1/2.

    ``S = sigma/2``, so the rotation angle is ``|w| t``.  Vectorized: the
    rates and the duration may be arrays that broadcast together (one
    propagator per element); a zero rate gives the identity through the
    ``sin(x)/x -> 1`` limit.
    """
    wn = np.sqrt(wx * wx + wy * wy + wz * wz)
    th = 0.5 * wn * t
    c = np.cos(th)
    # sin(th)/wn with the wn -> 0 limit t/2
    s = np.where(wn > 0, np.sin(th) / np.where(wn > 0, wn, 1.0), 0.5 * t)
    return (c - 1j * (s * wz), -1j * s * (wx - 1j * wy),
            -1j * s * (wx + 1j * wy), c + 1j * (s * wz))


def matexp_antihermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator ``exp(-i H t)`` for a Hermitian 2x2 ``h``.

    Raises :class:`ContractViolation` for non-Hermitian input or any other
    dimension.  Uses the closed Pauli form of :func:`su2_propagator`, so the
    matrix is unitary to machine precision.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h)
    if h.shape[0] != 2:
        raise ContractViolation(f"only dimension 2 is supported, got {h.shape[0]}")
    # H = a I + wx Sx + wy Sy + wz Sz
    a = 0.5 * (h[0, 0] + h[1, 1]).real
    u00, u01, u10, u11 = su2_propagator(2.0 * h[0, 1].real, -2.0 * h[0, 1].imag,
                                        (h[0, 0] - h[1, 1]).real, t)
    return np.exp(-1j * a * t) * np.array([[u00, u01], [u10, u11]])


def expectation(h: np.ndarray, psi: np.ndarray) -> float:
    """Real expectation value <psi|H|psi> of a Hermitian operator.

    The imaginary residue must not exceed :data:`IMAG_TOL` relative to
    ``max(|value|, 1)``; it is checked and discarded.
    """
    h = np.asarray(h, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if h.shape[0] != psi.shape[0]:
        raise ContractViolation(
            f"dimension mismatch: operator {h.shape[0]}, state {psi.shape[0]}")
    val = complex(psi.conj() @ (h @ psi))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > IMAG_TOL * scale:
        raise ContractViolation(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def overlap_probability(a: np.ndarray, b: np.ndarray) -> float:
    """``|<a|b>|^2`` for two normalized states of equal dimension, clipped to [0, 1]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ContractViolation(f"dimension mismatch: {a.shape} vs {b.shape}")
    check_state(a)
    check_state(b)
    p = abs(np.vdot(a, b)) ** 2
    return float(min(max(p, 0.0), 1.0))
