"""Small dense complex linear algebra for spin-1/2 and spin-1 systems.

States are numpy complex128 vectors of length 2 or 3, operators are dense
complex128 matrices.  No sparse structure is used anywhere: every matrix in
this package is at most 3x3, so closed forms beat any general-purpose
machinery.  The checks and :func:`matexp_antihermitian` also take stacks,
``(..., n)`` states and ``(..., n, n)`` operators; a NaN fails every check.
The spin-1/2 operators are the read-only constants :data:`SX`, :data:`SY`
and :data:`SZ`.

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


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


#: spin-1/2 angular momentum ``S = sigma/2``, ``SZ = diag(1/2, -1/2)``, read-only;
#: ``[Si, Sj] = i eps_ijk Sk``
SX = _read_only(0.5 * np.array([[0, 1], [1, 0]], dtype=complex))
SY = _read_only(0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex))
SZ = _read_only(0.5 * np.array([[1, 0], [0, -1]], dtype=complex))


def check_hermitian(m: np.ndarray) -> None:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    dev = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)
    if not dev <= HERMITIAN_TOL:
        raise ContractViolation(f"matrix is not Hermitian (max |M - M^dag| = {dev:.3e})")


def check_state(psi: np.ndarray) -> None:
    dev = np.max(np.abs(np.linalg.norm(np.asarray(psi), axis=-1) - 1.0), initial=0.0)
    if not dev <= NORM_TOL:
        raise ContractViolation(f"state is not normalized (max | ||psi|| - 1 | = {dev:.3e})")


def su2_propagator(wx, wy, wz, t):
    """Elements ``(u00, u01, u10, u11)`` of ``exp(-i (wx Sx + wy Sy + wz Sz) t)``, spin-1/2.

    ``S = sigma/2``, so the rotation angle is ``|w| t``.  Vectorized: the
    rates and the duration may be arrays that broadcast together (one
    propagator per element, 0-d arrays for scalars); a zero rate gives the
    identity through the ``sin(x)/x -> 1`` limit.
    """
    wn = np.sqrt(wx * wx + wy * wy + wz * wz)
    th = 0.5 * wn * t
    c = np.cos(th)
    # sin(th)/wn with the wn -> 0 limit t/2
    s = (np.sin(th) / wn if np.all(wn > 0)
         else np.where(wn > 0, np.sin(th) / np.where(wn > 0, wn, 1.0), 0.5 * t))
    sx, sy, sz = s * wx, s * wy, s * wz
    u00, u01, u10, u11 = (np.empty(np.shape(c), dtype=complex) for _ in range(4))
    u00.real = u11.real = c
    u11.imag, u10.real = sz, sy
    np.negative(sz, out=u00.imag)
    np.negative(sy, out=u01.real)
    np.negative(sx, out=u01.imag)
    u10.imag = u01.imag
    return u00, u01, u10, u11


def matexp_antihermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator ``exp(-i H t)`` for a Hermitian 2x2 ``h``.

    A ``(..., 2, 2)`` stack, with ``t`` broadcasting, gives a stack.  Raises
    :class:`ContractViolation` for non-Hermitian input or any other
    dimension.  Uses the closed Pauli form of :func:`su2_propagator`, so the
    matrix is unitary to machine precision.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h)
    if h.shape[-1] != 2:
        raise ContractViolation(f"only dimension 2 is supported, got {h.shape[-1]}")
    # H = a I + wx Sx + wy Sy + wz Sz
    a = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
    u = np.stack(su2_propagator(2.0 * h[..., 0, 1].real, -2.0 * h[..., 0, 1].imag,
                                (h[..., 0, 0] - h[..., 1, 1]).real, t), axis=-1)
    u *= np.exp(-1j * a * t)[..., None]
    return u.reshape(u.shape[:-1] + (2, 2))


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
    if not abs(val.imag) <= IMAG_TOL * scale:
        raise ContractViolation(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real

