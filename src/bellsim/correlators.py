"""Closed-form correlators for each state family.

Every observable is a unit vector: a polar qubit observable is its Bloch
vector in the axis order (z, x, y), (cos theta, sin theta cos alpha,
sin theta sin alpha), and a phase flip of phase t is (cos t, sin t).  Every
closed form is multilinear in these vectors.  On two parties E(a, b) = a.T b,
T the state's correlation matrix in the same coordinates (Horodecki^3, PLA
200, 340 (1995)); each family is its T literal, derived in its docstring,
and ``chsh`` contracts any T.  The Mermin forms on GHZ states are one O(n)
product of complex numbers, in real arithmetic (``mabk``).  The public forms
keep one argument per angle and convert them with ``settings_of``; the
search's evaluators pass the vectors directly.  Every form broadcasts, the
vector components on the last axis.  The tests check each form against the
matrix route, which applies each party's observables to the state, and
against 50-digit references.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import TSIRELSON_BOUND, NumericGuardError, _check_spin, _check_squeezing

# unused here: importing it keeps the order in which a process that loads
# this module first loads bellsim, and that order sets where the heap ends;
# without it lhv-montecarlo wall_s read about 6 % higher (18 benchmark pairs)
from . import observables  # noqa: F401

# Standard maximizing phases (alpha, alpha', beta, beta') for the cos(a+b)
# family; they yield 2 sqrt(2) on the first Bell state.
STANDARD_CHSH_ANGLES = (0.0, np.pi / 2, -np.pi / 4, np.pi / 4)
# Same combination for the cos(a-b) family (spin singlets).
STANDARD_CHSH_ANGLES_DIFF = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
# Maximizing phases of the Mermin form by party count: (a, a', b, b', c, c')
# for order 3; for order 4 each party at (d, d + pi/2) with 4d = pi/4.
STANDARD_MERMIN_ANGLES = {
    3: (0.0, np.pi / 2, -np.pi / 4, np.pi / 4, -np.pi / 4, np.pi / 4),
    4: tuple(v for _ in range(4) for v in (np.pi / 16, np.pi / 16 + np.pi / 2)),
}


def settings_of(angles, width):
    """The settings (..., S, width) of an angle vector on a last axis: one
    phase t per setting, (cos t, sin t), or the S polar angles theta then the
    S azimuths alpha, (cos theta, sin theta cos alpha, sin theta sin alpha)."""
    a = np.asarray(angles, dtype=float)
    if width == 2:
        return np.stack([np.cos(a), np.sin(a)], axis=-1)
    theta, alpha = np.split(a, 2, axis=-1)
    st = np.sin(theta)
    return np.stack([np.cos(theta), st * np.cos(alpha), st * np.sin(alpha)], axis=-1)


def angles_of(x):
    """The angle vector of settings ``x`` (..., S, w): theta in [0, pi],
    phases and azimuths in [0, 2 pi)."""
    phase = np.arctan2(x[..., -1], x[..., -2]) % (2.0 * np.pi)
    # a tiny negative angle wraps to 2 pi itself
    phase = np.where(phase < 2.0 * np.pi, phase, 0.0)
    if x.shape[-1] == 2:
        return phase
    theta = np.arctan2(np.hypot(x[..., 1], x[..., 2]), x[..., 0])
    return np.concatenate([theta, phase], axis=-1)


def _stacked(width, *angles):
    """The settings of angles given one argument each, broadcast together."""
    return settings_of(np.stack(np.broadcast_arrays(*angles), axis=-1), width)


_SUM_DIFF = np.array([[1.0], [-1.0]])


def chsh(t, x):
    """E(a, b) + E(a', b) + E(a, b') - E(a', b') = a.t(b + b') + a'.t(b - b')
    for E(a, b) = a.t b, on the settings x[..., k, :] = a, a', b, b': every
    two-party CHSH form.  A number t is the matrix t I."""
    y = x[..., 2:3, :] + _SUM_DIFF * x[..., 3:4, :]  # b + b', b - b'
    ty = t * y if np.ndim(t) == 0 else np.einsum("ij,...kj->...ki", t, y)
    return np.einsum("...ki,...ki->...", x[..., 0:2, :], ty)


# ---------------------------------------------------------------------------
# Two-qubit closed forms
# ---------------------------------------------------------------------------

# (|00> + |11>)/sqrt(2): <s_z s_z> = <s_x s_x> = 1 and <s_y s_y> = -1, so
# E = cos t cos o + sin t sin o cos(a + b); its (x, y) block on phases,
# E = cos(a + b)
T_PHI0_POLAR = np.diag([1.0, 1.0, -1.0])
T_PHI0_PHASE = np.diag([1.0, -1.0])


def chsh_phi0_phase(alpha, alpha_p, beta, beta_p):
    """CHSH on the first Bell state with phase-flip observables:
    cos(a+b) + cos(a'+b) + cos(a+b') - cos(a'+b')."""
    return chsh(T_PHI0_PHASE, _stacked(2, alpha, alpha_p, beta, beta_p))


def chsh_phi0_polar(theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on the first Bell state with full polar observables; reduces to
    chsh_phi0_phase at theta = theta' = omega = omega' = pi/2."""
    return chsh(T_PHI0_POLAR, _stacked(3, theta, theta_p, omega, omega_p,
                                       alpha, alpha_p, beta, beta_p))


def gisin_correlation(n):
    """T of the N-family state (1, 1, 1, s)/sqrt(N), s = sqrt(N - 3), in
    (z, x, y) order: <s_z s_z> = (1 - 1 - 1 + s^2)/N = (N - 4)/N,
    <s_z s_x> = <s_x s_z> = 2(1 - s)/N, <s_x s_x> = 2(1 + s)/N and
    <s_y s_y> = 2(1 - s)/N; the real amplitudes make every y-mixed entry 0."""
    if n < 3:
        raise ValueError(f"family parameter N must be >= 3, got {n}")
    s, n = math.sqrt(n - 3.0), float(n)
    off = 2.0 * (1.0 - s) / n
    return np.array([[(n - 4.0) / n, off, 0.0], [off, 2.0 * (1.0 + s) / n, 0.0],
                     [0.0, 0.0, off]])


def gisin_ab(n, theta, omega, alpha, beta):
    """Single-setting correlator <A (x) B> = a.T b on the N-family state."""
    x = _stacked(3, theta, omega, alpha, beta)
    return np.einsum("...i,ij,...j->...", x[..., 0, :], gisin_correlation(n), x[..., 1, :])


def chsh_gisin(n, theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on the N-family state with polar observables."""
    return chsh(gisin_correlation(n), _stacked(3, theta, theta_p, omega, omega_p,
                                               alpha, alpha_p, beta, beta_p))


def rstate_correlation(r):
    """T of (|+-> + r|-+>)/sqrt(1+r^2) in (z, x, y) order: diag(-1, k, k),
    k = 2r/(1+r^2), since s_x s_x and s_y s_y both swap |+-> and |-+>."""
    # 2r/(1 + r^2) without the inf/inf of 2r and r^2 past 1.3e154
    k = r / (0.5 + 0.5 * r * r)
    return np.diag([-1.0, k, k])


def chsh_rstate(r, theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on (|+-> + r|-+>)/sqrt(1+r^2) with polar observables."""
    return chsh(rstate_correlation(float(r)), _stacked(3, theta, theta_p, omega, omega_p,
                                                       alpha, alpha_p, beta, beta_p))


# ---------------------------------------------------------------------------
# Spin singlets
# ---------------------------------------------------------------------------

def spin_chsh(twoj, x):
    """CHSH on the spin-(twoj/2) singlet, on the settings x (..., 4, 2 pairs):
    each setting's phase vectors of the (m, -m) pairs end to end.  A pair's
    block is cos(a - b), so T is s I, s = 2/(2j+1), negated for half-integer
    j; integer j adds s for the unpaired |0>."""
    s = 2.0 / (twoj + 1.0)
    return chsh(-s, x) if twoj % 2 else s + chsh(s, x)


def chsh_spin_j(j, alphas, alphas_p, betas, betas_p):
    """CHSH on the spin-j singlet with per-pair phases, the last axis
    indexing the (m, -m) pairs (see ``spin_chsh``).  Raises ValueError unless
    j is a positive integer or half-integer up to ``limits.MAX_TWOJ / 2``."""
    twoj = _check_spin(j)
    if np.shape(alphas)[-1:] != ((twoj + 1) // 2,):
        raise ValueError(f"spin j={j} needs {(twoj + 1) // 2} phases per observable")
    x = settings_of(np.stack(np.broadcast_arrays(alphas, alphas_p, betas, betas_p), -2), 2)
    return spin_chsh(twoj, x.reshape(x.shape[:-2] + (-1,)))


def spin_j_max(j) -> float:
    """Largest |CHSH| on the spin-j singlet: 2 sqrt(2) for half-integer j,
    (2/(2j+1)) (1 + 2j sqrt(2)) for integer j.  Raises ValueError on the
    j that ``chsh_spin_j`` refuses."""
    twoj = _check_spin(j)
    if twoj % 2:
        return TSIRELSON_BOUND
    return (2.0 / (twoj + 1.0)) * (1.0 + twoj * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Fock-space families
# ---------------------------------------------------------------------------

def coherent_pair_series(x, max_terms: int = 60, rel_tol: float = 1e-15):
    """Sum of x^(4n+1)/sqrt((2n)!(2n+1)!), the single-mode factor of the
    coherent-state overlap sum.  Stops once a term drops below rel_tol of the
    partial sum.  Raises NumericGuardError once a term or the sum leaves the
    double range: from |x| of about 6.1 on, or sooner for huge x, since the
    factorials stop converting to float near n = 50."""
    total = 0.0
    try:
        for n in range(max_terms):
            term = float(x) ** (4 * n + 1) / math.sqrt(
                math.factorial(2 * n) * math.factorial(2 * n + 1)
            )
            total += term
            if abs(term) < rel_tol * max(abs(total), 1e-300):
                break
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericGuardError(f"coherent series at x={x} exceeds double precision")
    return total


def coherent_omega(eta, sigma, phi):
    """exp(-(eta^2+sigma^2)) / (1 + cos(phi) exp(-2(eta^2+sigma^2))).  Raises
    NumericGuardError where the denominator is not positive: the branches cancel."""
    s = eta * eta + sigma * sigma
    norm = 1.0 + np.cos(phi) * np.exp(-2.0 * s)
    if np.any(norm <= 0.0):
        raise NumericGuardError("degenerate normalization: the two branches cancel "
                                f"exactly (eta={eta}, sigma={sigma}, phi={phi})")
    return np.exp(-s) / norm


def coherent_correlation(eta, sigma, phi, max_terms: int = 60):
    """T of the entangled coherent state on even/odd phase flips:
    4 Omega Delta diag(1, -cos phi), i.e. E = 4 Omega Delta (cos a cos b
    - cos(phi) sin a sin b), with Delta the separable double series."""
    w = 4.0 * coherent_omega(eta, sigma, phi) * (coherent_pair_series(eta, max_terms)
                                                 * coherent_pair_series(sigma, max_terms))
    return np.diag([w, -w * np.cos(phi)])


def chsh_coherent(eta, sigma, phi, alpha, alpha_p, beta, beta_p,
                  max_terms: int = 60):
    """CHSH on the entangled coherent state with even/odd phase observables."""
    return chsh(coherent_correlation(eta, sigma, phi, max_terms),
                _stacked(2, alpha, alpha_p, beta, beta_p))


def squeezed_correlation(lam):
    """T of the two-mode squeezed state on even/odd phase flips: the first
    Bell state's diag(1, -1) times 2 lam/(1+lam^2)."""
    f = 2.0 * lam / (1.0 + lam * lam)
    return np.diag([f, -f])


def chsh_squeezed(lam, alpha, alpha_p, beta, beta_p):
    """CHSH on the two-mode squeezed state: 2 lam/(1+lam^2) times the
    first Bell state's ``chsh_phi0_phase``."""
    return chsh(squeezed_correlation(_check_squeezing(lam)),
                _stacked(2, alpha, alpha_p, beta, beta_p))


# ---------------------------------------------------------------------------
# Mermin forms on GHZ states
# ---------------------------------------------------------------------------

_ROW_SIGN = np.array([1.0, -1.0])


def mabk(x):
    """The n-party Mermin value on GHZ of the phase settings x (..., 2n, 2),
    party k at x[..., 2k, :] = z_k and x[..., 2k + 1, :] = z'_k, each
    (cos, sin) read as the complex number e^(ia).

    A product term with one setting per party is cos(sum of its phases) =
    Re(prod z) on GHZ, and the Mermin polynomial weighs a term with m primed
    settings by t_n(m) = 2^((3-n)/2) Re(w i^m), w = e^(-i pi (n-1)/4).  Since
    Re(cZ) + Re(c conj(Z)) = 2 Re(c) Re(Z), the whole sum is
    1/2 2^((3-n)/2) Re(w (P + Q)), P = prod(z_k + i z'_k) and
    Q = prod(conj(z_k) + i conj(z'_k)), which is O(n).  At n = 3 this is
    ``mermin3_ghz``, at n = 4 minus ``mermin4_ghz``.
    """
    n = x.shape[-2] // 2
    angle, scale = np.pi * (n - 1) / 4, 0.5 * 2.0 ** ((3 - n) / 2)
    # scale Re(w) and scale Im(w): 0 or a power of two, rounded to it exactly
    cr, ci = (round(scale * f(angle) * 2 ** n) / 2 ** n for f in (math.cos, math.sin))
    # row 0 holds the factors z + i z' of P, row 1 those z - i z' of conj(Q)
    sign = _ROW_SIGN.reshape((2,) + (1,) * (x.ndim - 1))
    re = x[..., 0::2, 0] - sign * x[..., 1::2, 1]
    im = x[..., 0::2, 1] + sign * x[..., 1::2, 0]
    pr, pi = re[..., 0], im[..., 0]
    for k in range(1, n - 1):
        pr, pi = pr * re[..., k] - pi * im[..., k], pr * im[..., k] + pi * re[..., k]
    ar, ai = re[..., n - 1], im[..., n - 1]
    value = 0.0  # cr Re(P + Q) + ci Im(P + Q), of the last product only the parts read
    if cr:
        real = pr * ar - pi * ai
        value = cr * (real[0] + real[1])
    if ci:
        imag = pr * ai + pi * ar
        value = value + ci * (imag[0] - imag[1])
    return value


def mermin3_ghz(alpha, alpha_p, beta, beta_p, gamma, gamma_p):
    """Order-3 Mermin combination on the 3-party GHZ state:
    cos(a'+b+c) + cos(a+b'+c) + cos(a+b+c') - cos(a'+b'+c').

    The matrix route on (|+++> - |--->)/sqrt(2) yields the negative of this
    expression; magnitudes agree, and the classification only uses |value|.
    """
    return mabk(_stacked(2, alpha, alpha_p, beta, beta_p, gamma, gamma_p))


def mermin4_ghz(a, a_p, b, b_p, c, c_p, d, d_p):
    """Order-4 Mermin combination on the 4-party GHZ state, matching the
    matrix route sign for sign: minus ``mabk`` at n = 4."""
    return -mabk(_stacked(2, a, a_p, b, b_p, c, c_p, d, d_p))
