"""Independent reference values for the benchmark's checks.

Nothing here imports bellsim: each value comes from a textbook formula or
from a factorized contraction written against plain numpy, so a wrong
closed form, oracle or optimizer in the package cannot also move the value
it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
MERMIN3_MAX = 4.0
MERMIN4_MAX = 4.0 * math.sqrt(2.0)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def horodecki_chsh_max(amplitudes) -> float:
    """Largest CHSH value over all qubit observables on a two-qubit pure state.

    2 sqrt(t1^2 + t2^2), with t1 >= t2 the two largest singular values of the
    correlation matrix T_ij = <psi| sigma_i (x) sigma_j |psi> (Horodecki^3,
    PLA 200, 340 (1995)).
    """
    psi = np.asarray(amplitudes, dtype=complex).reshape(2, 2)
    psi = psi / np.linalg.norm(psi)
    t = np.array([[np.vdot(psi, si @ psi @ sj.T).real for sj in _PAULI] for si in _PAULI])
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def spin_chsh_max(j: float) -> float:
    """Largest |CHSH| on the spin-j singlet with |m> <-> |-m> phase
    observables: 2 sqrt(2) for half-integer j, (2/(2j+1)) (1 + 2j sqrt(2))
    for integer j."""
    twoj = int(round(2 * j))
    if twoj % 2:
        return TSIRELSON
    return 2.0 / (twoj + 1.0) * (1.0 + twoj * math.sqrt(2.0))


def sign_model_E(a, b) -> float:
    """E(a, b) = -(1 - 2 theta/pi) for A = sign(a.lam), B = -sign(b.lam) with
    lam uniform on the sphere and theta the angle between a and b."""
    cos = float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    return -(1.0 - 2.0 * math.acos(cos) / math.pi)


def sign_model_chsh(a, a_p, b, b_p) -> float:
    return (sign_model_E(a, b) + sign_model_E(a_p, b)
            + sign_model_E(a, b_p) - sign_model_E(a_p, b_p))


# ---------------------------------------------------------------------------
# Factorized bipartite CHSH: <psi|A (x) B|psi> = vdot(Psi, A Psi B^T) on the
# amplitude matrix Psi, so no Kronecker product is ever formed.
# ---------------------------------------------------------------------------

def phase_flip(angle: float, dim: int) -> np.ndarray:
    """Flip each pair (2n, 2n+1): entry (2n+1, 2n) = e^(i a), (2n, 2n+1) = e^(-i a)."""
    m = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(0, dim, 2)
    m[idx + 1, idx] = np.exp(1j * angle)
    m[idx, idx + 1] = np.exp(-1j * angle)
    return m


def bipartite_chsh(psi: np.ndarray, angles) -> float:
    """CHSH with phase-flip observables at (a, a', b, b') on the amplitude
    matrix psi (rows index the first party)."""
    dim = psi.shape[0]
    a, a_p, b, b_p = (phase_flip(x, dim) for x in angles)
    psi = psi / np.linalg.norm(psi)
    total = np.vdot(psi, (a + a_p) @ psi @ b.T + (a - a_p) @ psi @ b_p.T)
    return float(total.real)


def bell_phi_plus() -> np.ndarray:
    return np.eye(2, dtype=complex)


def coherent_column(z: float, cutoff: int) -> np.ndarray:
    """e^(-z^2/2) z^n / sqrt(n!) for real z, via log-gamma."""
    n = np.arange(cutoff)
    logmag = n * math.log(abs(z)) - 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
    sign = np.where((z < 0) & (n % 2 == 1), -1.0, 1.0)
    return sign * np.exp(logmag - z * z / 2.0)


def entangled_coherent_matrix(eta, sigma, phi, cutoff: int) -> np.ndarray:
    plus = np.outer(coherent_column(eta, cutoff), coherent_column(sigma, cutoff))
    minus = np.outer(coherent_column(-eta, cutoff), coherent_column(-sigma, cutoff))
    return plus + np.exp(1j * phi) * minus


def squeezed_matrix(lam: float, cutoff: int) -> np.ndarray:
    return np.diag(lam ** np.arange(cutoff)).astype(complex)
