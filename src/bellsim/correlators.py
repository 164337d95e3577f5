"""Closed-form correlators for each state family.

Every function here is the algebraic expectation of the CHSH (or Mermin)
combination on its state family; each one is cross-checked against the
generic matrix route in the test suite.  All formulas broadcast over numpy
arrays, so a batch of parameter points evaluates in one call.  Each distinct
cosine and sine of a call is computed once, and every sum and product keeps
the order of the written formula, so a value does not depend on how its
terms were shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import CHSH_CLASSICAL_BOUND, TSIRELSON_BOUND, NumericGuardError, _check_squeezing
from .linalg import DenseOperator, StateVector, expectation
from .observables import _M4_SIGNS

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


@dataclass(frozen=True)
class CorrelatorReport:
    """A correlator value classified against its classical/quantum bounds."""

    value: float
    classical_bound: float
    quantum_bound: float
    violated: bool
    settings: tuple = ()

    def __post_init__(self):
        if abs(self.value) > self.quantum_bound + 1e-9:
            raise ValueError(
                f"|value| = {abs(self.value)} exceeds the quantum bound "
                f"{self.quantum_bound}"
            )


def generic_correlator(state: StateVector, operator: DenseOperator,
                       classical_bound: float = CHSH_CLASSICAL_BOUND,
                       quantum_bound: float = TSIRELSON_BOUND,
                       settings: tuple = ()) -> CorrelatorReport:
    """Matrix-route correlator <psi|O|psi> classified against its bounds.

    Violation is strict: |value| must exceed the classical bound, threshold
    cases count as non-violations.
    """
    val = expectation(operator, state)
    if operator.hermitian and abs(val.imag) > 1e-10:
        raise ValueError(f"Hermitian expectation came out complex: {val}")
    value = float(val.real)
    settings_t = tuple(np.atleast_1d(settings).tolist()) if np.size(settings) else ()
    return CorrelatorReport(
        value=value,
        classical_bound=float(classical_bound),
        quantum_bound=float(quantum_bound),
        violated=bool(abs(value) > classical_bound),
        settings=settings_t,
    )


# ---------------------------------------------------------------------------
# Two-qubit closed forms
# ---------------------------------------------------------------------------

def chsh_phi0_phase(alpha, alpha_p, beta, beta_p):
    """CHSH on the first Bell state with phase-flip observables:
    cos(a+b) + cos(a'+b) + cos(a+b') - cos(a'+b')."""
    return (np.cos(alpha + beta) + np.cos(alpha_p + beta)
            + np.cos(alpha + beta_p) - np.cos(alpha_p + beta_p))


def _chsh(e, x, x_p, y, y_p):
    """e(x, y) + e(x', y) + e(x, y') - e(x', y'): the CHSH combination of the
    correlator ``e`` over Alice's settings x, x' and Bob's y, y'."""
    return e(x, y) + e(x_p, y) + e(x, y_p) - e(x_p, y_p)


def _cos_sin(angle):
    return np.cos(angle), np.sin(angle)


def chsh_phi0_polar(theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on the first Bell state with full polar observables; reduces to
    chsh_phi0_phase at theta = theta' = omega = omega' = pi/2."""
    def e(x, y):
        (ct, st, a), (co, so, b) = x, y
        return ct * co + st * so * np.cos(a + b)

    return _chsh(e, (*_cos_sin(theta), alpha), (*_cos_sin(theta_p), alpha_p),
                 (*_cos_sin(omega), beta), (*_cos_sin(omega_p), beta_p))


def _gisin_setting(theta, phase):
    """What the N-family correlator reads of one polar setting:
    (cos theta, sin theta, cos phase, phase)."""
    return (*_cos_sin(theta), np.cos(phase), phase)


def _gisin_e(n, x, y):
    """<A (x) B> on the N-family state from two ``_gisin_setting`` tuples."""
    (ct, st, ca, a), (co, so, cb, b) = x, y
    s3 = math.sqrt(n - 3.0)
    return (ct * co * (n - 4.0)
            + 2.0 * ct * so * (1.0 - s3) * cb
            + 2.0 * st * co * (1.0 - s3) * ca
            + 2.0 * st * so * (s3 * np.cos(a + b) + np.cos(a - b))) / float(n)


def gisin_ab(n, theta, omega, alpha, beta):
    """Single-setting correlator <A (x) B> on the N-family state."""
    return _gisin_e(n, _gisin_setting(theta, alpha), _gisin_setting(omega, beta))


def chsh_gisin(n, theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on the N-family state with polar observables."""
    if n < 3:
        raise ValueError(f"family parameter N must be >= 3, got {n}")
    return _chsh(lambda x, y: _gisin_e(n, x, y),
                 _gisin_setting(theta, alpha), _gisin_setting(theta_p, alpha_p),
                 _gisin_setting(omega, beta), _gisin_setting(omega_p, beta_p))


def chsh_rstate(r, theta, theta_p, omega, omega_p, alpha, alpha_p, beta, beta_p):
    """CHSH on (|+-> + r|-+>)/sqrt(1+r^2) with polar observables."""
    # 2r/(1 + r^2) without the inf/inf of 2r and r^2 past 1.3e154
    k = r / (0.5 + 0.5 * r * r)

    def e(x, y):
        (ct, st, a), (co, so, b) = x, y
        return k * st * so * np.cos(a - b) - ct * co

    return _chsh(e, (*_cos_sin(theta), alpha), (*_cos_sin(theta_p), alpha_p),
                 (*_cos_sin(omega), beta), (*_cos_sin(omega_p), beta_p))


# ---------------------------------------------------------------------------
# Spin singlets
# ---------------------------------------------------------------------------

def chsh_spin_j(j, alphas, alphas_p, betas, betas_p):
    """CHSH on the spin-j singlet with per-pair phases (last axis indexes the
    (m, -m) pairs).

    Each pair contributes a cos(a-b) CHSH block scaled by 2/(2j+1); integer j
    adds the unpaired-|0> constant 2/(2j+1), half-integer j flips the overall
    sign.
    """
    twoj = int(round(2 * j))
    a, ap = np.asarray(alphas, dtype=float), np.asarray(alphas_p, dtype=float)
    b, bp = np.asarray(betas, dtype=float), np.asarray(betas_p, dtype=float)
    npairs = (twoj + 1) // 2
    if a.shape[-1] != npairs:
        raise ValueError(f"spin j={j} needs {npairs} phases per observable")
    combo = (np.cos(a - b) + np.cos(ap - b) + np.cos(a - bp)
             - np.cos(ap - bp)).sum(axis=-1)
    scale = 2.0 / (twoj + 1.0)
    if twoj % 2 == 0:
        return scale * (1.0 + combo)
    return -scale * combo


def spin_j_max(j) -> float:
    """Largest |CHSH| on the spin-j singlet: 2 sqrt(2) for half-integer j,
    (2/(2j+1)) (1 + 2j sqrt(2)) for integer j."""
    twoj = int(round(2 * j))
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


def chsh_coherent(eta, sigma, phi, alpha, alpha_p, beta, beta_p,
                  max_terms: int = 60):
    """CHSH on the entangled coherent state with even/odd phase observables.

    4 Omega Delta [ (cos a cos b - cos(phi) sin a sin b) + (a', b) + (a, b')
    - (a', b') ] with Delta the separable double series.
    """
    delta = coherent_pair_series(eta, max_terms) * coherent_pair_series(sigma, max_terms)
    om = coherent_omega(eta, sigma, phi)
    cp = np.cos(phi)

    def term(x, y):
        (ca, sa), (cb, sb) = x, y
        return ca * cb - cp * sa * sb

    return 4.0 * om * delta * _chsh(term, _cos_sin(alpha), _cos_sin(alpha_p),
                                    _cos_sin(beta), _cos_sin(beta_p))


def chsh_squeezed(lam, alpha, alpha_p, beta, beta_p):
    """CHSH on the two-mode squeezed state: 2 lam/(1+lam^2) times the
    first Bell state's ``chsh_phi0_phase``."""
    lam = _check_squeezing(lam)
    return 2.0 * lam / (1.0 + lam * lam) * chsh_phi0_phase(alpha, alpha_p, beta, beta_p)


# ---------------------------------------------------------------------------
# Mermin forms on GHZ states
# ---------------------------------------------------------------------------

def mermin3_ghz(alpha, alpha_p, beta, beta_p, gamma, gamma_p):
    """Order-3 Mermin combination on the 3-party GHZ state:
    cos(a'+b+c) + cos(a+b'+c) + cos(a+b+c') - cos(a'+b'+c').

    The matrix route on (|+++> - |--->)/sqrt(2) yields the negative of this
    expression; magnitudes agree, and the classification only uses |value|.
    """
    return (np.cos(alpha_p + beta + gamma) + np.cos(alpha + beta_p + gamma)
            + np.cos(alpha + beta + gamma_p) - np.cos(alpha_p + beta_p + gamma_p))


def mermin4_ghz(a, a_p, b, b_p, c, c_p, d, d_p):
    """Order-4 Mermin combination on the 4-party GHZ state, matching the
    matrix route sign for sign."""
    # the 16 angle sums in np.ndindex(2, 2, 2, 2) order, each partial sum
    # formed once.  They start from a, not from sum()'s 0 + a: that changes
    # only the sign of a zero sum, and cos(-0.0) == cos(0.0).
    sums = [a, a_p]
    for pair in ((b, b_p), (c, c_p), (d, d_p)):
        sums = [s + x for s in sums for x in pair]
    total = 0.0
    for bits, s in zip(np.ndindex(2, 2, 2, 2), sums):
        total = total + _M4_SIGNS[sum(bits)] * np.cos(s)
    return -total / 2.0
