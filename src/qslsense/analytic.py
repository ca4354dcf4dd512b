"""Closed-form results for the bipartite two-pulse sensing sequence.

The sequence is two back-to-back control rotations of equal duration with a
90 degree relative phase jump, i.e. a Ramsey sequence with zero interpulse
delay.  All frequencies are angular (rad/s), all times are seconds, hbar = 1.

Sign convention
---------------
The first rotation axis is Y, the second is +X, and the qubit starts and is
read out in the upper Sz eigenstate.  Under this convention a positive
detuning lowers the transition probability: at flip angle alpha = pi/2,
``p = 1/2 - phi/pi`` where ``phi = detuning * duration``.  Consequently the
phase scaling factor :func:`phase_scaling_factor` is negative on
(0, pi); :func:`phase_scaling_magnitude` provides the positive magnitude
(2/pi at alpha = pi/2).  Flipping the second axis to -X flips every
first-order sign at once; no other convention leaks out of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinlin import expectation

TWO_PI = 2.0 * math.pi


class NumericError(RuntimeError):
    """A numerical procedure (root bracketing, fitting) failed; message has diagnostics."""


@dataclass(frozen=True)
class BipartiteParams:
    """Parameters of the equal-timeshare, 90-degree-jump two-pulse sequence.

    rabi: angular Rabi frequency (rad/s), > 0.
    duration: total sequence duration tau (s), >= 0.
    detuning: angular detuning of the qubit from the drive (rad/s).
    """

    rabi: float
    duration: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.rabi <= 0:
            raise ValueError(f"rabi must be > 0, got {self.rabi}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def flip_angle(self) -> float:
        """Rotation angle per pulse, alpha = rabi * duration / 2."""
        return 0.5 * self.rabi * self.duration


@dataclass
class MetricsReport:
    """Resolution and bandwidth metrics of one sequence configuration.

    Time metrics are seconds, bandwidths rad/s.  Fields not computed by a
    given producer (e.g. the sample-based estimator of the test suite,
    ``numeric_metrics`` in tests/oracles.py, fills no bandwidths) are left
    as None.
    """

    t_fwhm: float | None = None
    t_20_80: float | None = None
    t_10_90: float | None = None
    t_square: float | None = None
    bw_first_root: float | None = None
    bw_3db: float | None = None
    epsilon: float | None = None
    p0: float | None = None


@dataclass(frozen=True)
class QslInput:
    """Hamiltonian (rad/s), normalized state, and the energy zero for the mean-energy bound."""

    hamiltonian: np.ndarray
    state: np.ndarray
    ground_energy: float = 0.0


def exact_transition_probability(params: BipartiteParams) -> float:
    """Exact transition probability of the equal-timeshare, 90-degree-jump sequence.

    Valid for any detuning (not restricted to detuning << rabi).  Other
    timeshares and phase jumps have no such closed form; the sequence
    propagator (:func:`qslsense.sequence.make_bipartite`) covers them.
    """
    om = params.rabi
    dw = params.detuning
    tau = params.duration
    eff = math.hypot(om, dw)
    num = (om**2 * (4 * dw**2 * math.cos(tau * eff / 2)
                    + 8 * dw * eff * math.sin(tau * eff / 4) ** 2 * math.sin(tau * eff / 2)
                    + om**2 * math.cos(tau * eff))
           + 4 * dw**4 + 4 * dw**2 * om**2 + 3 * om**4)
    p = 1.0 - num / (4 * eff**4)
    return min(max(p, 0.0), 1.0)


def first_order_probability(alpha: float, phi: float) -> float:
    """Transition probability to first order in the accumulated phase ``phi``.

    ``p = (1 - cos 2a)/4 + (phi/2a) sin(a)(cos(a) - 1)``.  Accurate for
    |phi| << pi/2 (not enforced).  alpha = 0 returns the limit value 0.
    """
    if alpha == 0.0:
        return 0.0
    return (0.25 * (1.0 - math.cos(2 * alpha))
            + (phi / (2 * alpha)) * math.sin(alpha) * (math.cos(alpha) - 1.0))


def phase_scaling_factor(alpha: float) -> float:
    """Signed ratio of effective to ideal Ramsey phase, ``sin(a)(cos(a)-1)/a``.

    Negative on (0, pi) under this package's axis convention; the commonly
    quoted positive value is its magnitude, see :func:`phase_scaling_magnitude`.
    alpha = 0 returns the limit 0.
    """
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
    if alpha == 0.0:
        return 0.0
    return math.sin(alpha) * (math.cos(alpha) - 1.0) / alpha


def phase_scaling_magnitude(alpha: float) -> float:
    """|phase_scaling_factor|; equals 2/pi ~ 0.637 at alpha = pi/2."""
    return abs(phase_scaling_factor(alpha))


def effective_phase_extended(delta_omega: float, tau: float, t_r: float) -> float:
    """Accumulated phase for 90-degree pulses of duration ``t_r`` separated by free evolution.

    ``phi_eff = 4 dw t_r / pi + dw (tau - 2 t_r)``: the rotation windows each
    contribute with the pi/2 scaling factor, the free interval at full rate.
    Requires 0 <= 2 t_r <= tau.
    """
    if t_r < 0 or 2 * t_r > tau:
        raise ValueError(f"need 0 <= 2*t_r <= tau, got t_r={t_r}, tau={tau}")
    return 4.0 * delta_omega * t_r / math.pi + delta_omega * (tau - 2.0 * t_r)


def bipartite_sensitivity(omega: float, tau: float, timeshare: float,
                          phase_jump: float) -> float:
    """d(dp)/d(detuning) at zero detuning for the general two-segment sequence.

    ``eta = sin(theta) [sin((k-1) Om tau) - sin(k Om tau) + sin(Om tau)] / (2 Om)``.
    Antisymmetric-equal under k <-> 1-k; vanishes at theta = 0 and k in {0, 1}.
    Units: seconds (probability change per rad/s).
    """
    if not 0.0 <= timeshare <= 1.0:
        raise ValueError(f"timeshare must lie in [0, 1], got {timeshare}")
    x = omega * tau
    return math.sin(phase_jump) * (
        math.sin((timeshare - 1.0) * x) - math.sin(timeshare * x) + math.sin(x)
    ) / (2.0 * omega)


def kernel_value(t, omega: float, tau: float):
    """Unit-amplitude sensing kernel ``sin(Om(tau/2 - |t|))`` on |t| < tau/2, else 0.

    Accepts scalars or arrays for ``t``.  This is the shape only; the physical
    impulse response carries an extra factor sin(alpha)/2 fixed by the DC
    sensitivity (see response.estimate_kernel's normalization).
    """
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < tau / 2
    vals = np.where(inside, np.sin(omega * (tau / 2 - np.abs(t))), 0.0)
    return float(vals) if vals.ndim == 0 else vals


def transfer_value(omega_signal, omega_rabi: float, tau: float):
    """Magnitude of the kernel's Fourier transform (1/sqrt(2 pi) convention).

    ``K(w) = sqrt(2/pi) Om |cos(Om tau/2) - cos(w tau/2)| / |Om^2 - w^2|``.
    The removable singularity at w = Om is evaluated by a series branch for
    |w - Om| < 1e-6 Om, where cancellation would otherwise dominate.  Each
    branch sees only the points it serves, so neither overflows on the
    other's.  Accepts scalars or arrays for ``omega_signal``, or, at one
    ``omega_signal``, an array for ``tau``.
    """
    w = np.asarray(omega_signal, dtype=float)
    om = omega_rabi
    a = om * tau / 2.0
    h = w - om
    near = np.abs(h) < 1e-6 * om
    if w.ndim == 0:
        out = _transfer_series(h, om, tau, a) if near else _transfer_direct(w, om, tau, a)
        return float(out) if np.ndim(out) == 0 else out
    # zero the inputs a branch does not serve; the where discards its value there
    return np.where(near, _transfer_series(h * near, om, tau, a),
                    _transfer_direct(np.where(near, 0.0, w), om, tau, a))


def _transfer_series(h, om: float, tau: float, a: float):
    """K near w = Om: the numerator of (cos a - cos(w tau/2))/(Om^2 - w^2) expanded in h."""
    num_series = np.abs(np.sin(a) * (tau / 2.0)
                        + np.cos(a) * h * tau**2 / 8.0
                        - np.sin(a) * h**2 * tau**3 / 48.0)
    return math.sqrt(2.0 / math.pi) * om * num_series / (2.0 * om + h)


def _transfer_direct(w, om: float, tau: float, a: float):
    """K away from w = Om, from the closed form."""
    # beyond |w| ~ 1e154 the square overflows to inf and K to 0, its limit
    with np.errstate(over="ignore"):
        denom = np.abs(om**2 - w**2)
    return math.sqrt(2.0 / math.pi) * om * np.abs(np.cos(a) - np.cos(w * tau / 2.0)) / denom


def check_alpha_quadrant(alpha: float) -> None:
    """Raise ValueError unless alpha lies in (0, pi/2].

    An excess of up to 1e-12 relative is accepted as rounding: a flip angle
    recomputed as 0.5 * Om * (2 alpha / Om) can land one ulp above pi/2.
    """
    if not 0.0 < alpha <= (math.pi / 2) * (1.0 + 1e-12):
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha}")


def time_resolution_fwhm(tau: float, alpha: float) -> float:
    """Full width at half maximum of the kernel, ``tau (1 - arcsin(sin(a)/2)/a)``.

    Equals (2/3) tau at alpha = pi/2 and tends to tau/2 as alpha -> 0.
    Defined for alpha in (0, pi/2] where the kernel is single-peaked.
    """
    check_alpha_quadrant(alpha)
    return tau * (1.0 - math.asin(math.sin(alpha) / 2.0) / alpha)


def rise_time(tau: float, omega: float, band: str) -> float:
    """Closed-form 20-80% or 10-90% rise-time resolution of the sequence.

    ``band`` is "r20_80" or "r10_90".  At alpha = pi/2 these evaluate to
    tau (1 - arccos(1/5)/pi) ~ 0.564 tau and tau (1 - arccos(3/5)/pi) ~ 0.704 tau.
    Note: the sample-based estimator of the test suite (``numeric_metrics``
    in tests/oracles.py) reads rise times off cumulative-area threshold
    crossings, a definition that agrees with these closed forms only in the
    alpha -> 0 limit.
    """
    alpha = omega * tau / 2.0
    check_alpha_quadrant(alpha)
    if band == "r20_80":
        arg = (2.0 * math.cos(2 * alpha) + 3.0) / 5.0
    elif band == "r10_90":
        arg = (math.cos(2 * alpha) + 4.0) / 5.0
    else:
        raise ValueError(f"band must be 'r20_80' or 'r10_90', got {band!r}")
    return tau - math.acos(arg) / omega


def equivalent_duration(tau: float, alpha: float) -> float:
    """Duration of the equal-area square kernel with the same peak, ``tau tan(a/2)/a``.

    Diverges as alpha -> pi (the kernel area outruns its peak); alpha >= pi
    raises.  Equals (2/pi) tau at alpha = pi/2, tends to tau/2 as alpha -> 0.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must lie in (0, pi), got {alpha}")
    return tau * math.tan(alpha / 2.0) / alpha


def bandwidth_first_root(omega: float, alpha: float) -> float:
    """First zero of the transfer function, ``Om (2 pi / a - 1)``; 3 Om at a = pi/2."""
    check_alpha_quadrant(alpha)
    return omega * (2.0 * math.pi / alpha - 1.0)


def bandwidth_3db(omega: float, alpha: float) -> float:
    """3-dB bandwidth: smallest w > Om with K(w) = K(0)/sqrt(2).

    Solves ``(y^2 - 1)(1 - cos a)/sqrt(2) = |cos a - cos(y a)|`` for the
    smallest y > 1 by a coarse scan for the first sign change on
    [1 + 1e-9, 2 pi / a] followed by bisection to 1e-12 relative;
    returns y * Om (~ 1.19 Om at alpha = pi/2).
    """
    check_alpha_quadrant(alpha)

    def f(y: float) -> float:
        return ((y * y - 1.0) * (1.0 - math.cos(alpha)) / math.sqrt(2.0)
                - abs(math.cos(alpha) - math.cos(y * alpha)))

    lo = 1.0 + 1e-9
    hi = 2.0 * math.pi / alpha
    n_scan = 4096
    ys = np.linspace(lo, hi, n_scan)
    fs = np.array([f(y) for y in ys])
    idx = np.nonzero((fs[:-1] < 0) & (fs[1:] >= 0))[0]
    if len(idx) == 0:
        raise NumericError(
            f"no sign change of the 3-dB condition in [{lo}, {hi}] at alpha={alpha}; "
            f"f ranges [{fs.min():.3e}, {fs.max():.3e}]")
    a, b = float(ys[idx[0]]), float(ys[idx[0] + 1])
    while (b - a) > 1e-12 * b:
        mid = 0.5 * (a + b)
        if f(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b) * omega


def qsl_times(inp: QslInput) -> tuple[float, float]:
    """Minimum orthogonalization times from the variance and mean-energy bounds.

    Returns ``(t_var, t_mean)`` with ``t_var = (pi/2)/<dH>`` and
    ``t_mean = (pi/2)/(<H> - E_ground)``, hbar = 1.  A vanishing denominator
    (variance below 1e-14 of <H^2>, or zero mean gap) yields ``math.inf``
    rather than raising; a negative mean gap raises ValueError since the
    reference is then not a ground energy.
    """
    h = np.asarray(inp.hamiltonian, dtype=complex)
    psi = np.asarray(inp.state, dtype=complex)
    mean = expectation(h, psi)
    second = expectation(h @ h, psi)
    var = second - mean * mean
    scale = max(second, mean * mean, 1e-300)
    if var <= 1e-14 * scale:
        t_var = math.inf
    else:
        t_var = (math.pi / 2.0) / math.sqrt(var)
    gap = mean - inp.ground_energy
    if gap < -1e-14 * max(abs(mean), abs(inp.ground_energy), 1.0):
        raise ValueError(f"<H> - E_ground = {gap:.3e} is negative; not a ground energy")
    t_mean = math.inf if gap <= 0 else (math.pi / 2.0) / gap
    return t_var, t_mean


def metrics_report(omega: float, tau: float) -> MetricsReport:
    """All closed-form metrics of the sequence at (omega, tau); needs alpha <= pi/2."""
    alpha = omega * tau / 2.0
    return MetricsReport(
        t_fwhm=time_resolution_fwhm(tau, alpha),
        t_20_80=rise_time(tau, omega, "r20_80"),
        t_10_90=rise_time(tau, omega, "r10_90"),
        t_square=equivalent_duration(tau, alpha),
        bw_first_root=bandwidth_first_root(omega, alpha),
        bw_3db=bandwidth_3db(omega, alpha),
        epsilon=phase_scaling_factor(alpha),
        p0=0.25 * (1.0 - math.cos(2 * alpha)),
    )
